#include "core/scenario.h"

namespace ugrpc::core {

void echo_app(UserProtocol& user, Site&) {
  user.set_procedure([](OpId, Buffer&) -> sim::Task<> { co_return; });
}

Scenario::Scenario(ScenarioParams params)
    : params_(std::move(params)), sched_(params_.seed), net_(sched_) {
  net_.set_default_faults(params_.faults);
  net_.set_tracer(params_.tracer);

  // client_id() depends on servers_.size(); during construction compute the
  // ids from the params instead.
  const auto planned_client_id = [this](int i) {
    return ProcessId{static_cast<std::uint32_t>(params_.num_servers + i + 1)};
  };
  std::vector<ProcessId> group_members;
  std::set<ProcessId> known;
  for (int i = 0; i < params_.num_servers; ++i) {
    group_members.push_back(server_id(i));
    known.insert(server_id(i));
  }
  std::vector<ProcessId> all_procs = group_members;
  for (int i = 0; i < params_.num_clients; ++i) {
    known.insert(planned_client_id(i));
    all_procs.push_back(planned_client_id(i));
  }
  net_.define_group(params_.config.group, group_members);

  // Construct (attach) every site before booting any: a booting site may
  // send at once (membership heartbeats), and every peer must be reachable.
  const Site::AppSetup app = params_.server_app ? params_.server_app : echo_app;
  for (int i = 0; i < params_.num_servers; ++i) {
    auto site = std::make_unique<Site>(net_, server_id(i), params_.config, known, all_procs);
    site->set_app(app);
    servers_.push_back(std::move(site));
  }
  for (int i = 0; i < params_.num_clients; ++i) {
    clients_.push_back(
        std::make_unique<Site>(net_, client_id(i), params_.config, known, all_procs));
    client_handles_.push_back(std::make_unique<Client>(*clients_.back()));
  }
  for (auto& site : servers_) site->boot();
  for (auto& site : clients_) site->boot();
}

void Scenario::run_client(int i, std::function<sim::Task<>(Client&)> fn, sim::Duration deadline) {
  Client& c = client(i);
  auto wrapper = [](std::function<sim::Task<>(Client&)> f, Client& cl) -> sim::Task<> {
    co_await f(cl);
  };
  const FiberId fiber = sched_.spawn(wrapper(std::move(fn), c), client_site(i).domain());
  const sim::Time stop_at = sched_.now() + deadline;
  while (sched_.fiber_alive(fiber) && sched_.now() < stop_at && sched_.step()) {
  }
}

std::uint64_t Scenario::total_server_executions() const {
  std::uint64_t total = 0;
  for (const auto& s : servers_) total += s->total_executions();
  return total;
}

}  // namespace ugrpc::core
