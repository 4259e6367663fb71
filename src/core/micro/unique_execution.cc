#include "core/micro/unique_execution.h"

#include <algorithm>

#include "core/priorities.h"

namespace ugrpc::core {

namespace {

/// The missed range that holds `id`, or the end.
auto missed_at(std::vector<std::pair<CallId, CallId>>& missed, CallId id) {
  return std::ranges::find_if(missed,
                              [id](const auto& m) { return m.first <= id && id < m.second; });
}

}  // namespace

void UniqueExecution::start(runtime::Framework& fw) {
  fw_ = &fw;
  fw.register_handler(kCallFromNetwork, "UniqueExec.call_from_net", kPrioNetUnique,
                      [this](runtime::EventContext& ctx) { return call_from_net(ctx); });
  fw.register_handler(kReplyFromNetwork, "UniqueExec.reply_from_net", kPrioNetUnique,
                      [this](runtime::EventContext& ctx) {
                        // Client side: the server stores this result until a
                        // W above it reaches the server; owe it one.
                        const auto& msg = ctx.arg_as<net::NetMessage>();
                        Owed& o = owed_entry(msg.sender);
                        if (o.replied < msg.id) o.replied = msg.id;
                        arm_flush();
                      });
  fw.register_handler(kAckFromNetwork, "UniqueExec.ack_from_net", kPrioNetUnique,
                      [this](runtime::EventContext& ctx) {
                        const auto& msg = ctx.arg_as<net::NetMessage>();
                        const CallId w{msg.ackid};
                        if (call_client(w) == msg.sender) raise_floor(w, journal());
                      });
  fw.register_handler(kNewRpcCall, "UniqueExec.handle_new_call", kPrioNewUnique,
                      [this](runtime::EventContext& ctx) {
                        // RPC Main multicasts this Call right after the
                        // event's chain, carrying W: each server it goes to
                        // is told W, which covers every Reply below it.
                        ClientRecord& rec = ctx.arg_as<ClientRecord>();
                        const CallId w = state_.low_watermark();
                        for (Owed& o : owed_) {
                          if (o.replied < w && rec.pending_for(o.server) != nullptr) {
                            o.replied = CallId{};
                          }
                        }
                      });
  fw.register_handler(kReplyFromServer, "UniqueExec.handle_reply", kPrioReplyUnique,
                      [this](runtime::EventContext& ctx) {
                        const ServerRecord& rec = ctx.arg_as<ServerRecord>();
                        store_result(rec.id, rec.args, journal());
                      });
}

void UniqueExecution::write_floor(Writer& w, const Session& s) {
  w.u8(static_cast<std::uint8_t>(Change::kFloor));
  w.u64(s.floor.value());
  w.u64(s.missed.size());
  for (const auto& [lo, hi] : s.missed) {
    w.u64(lo.value());
    w.u64(hi.value());
  }
}

void UniqueExecution::write_result(Writer& w, CallId id, const Buffer& result) {
  w.u8(static_cast<std::uint8_t>(Change::kResultStored));
  w.u64(id.value());
  w.raw(result.bytes());
}

std::size_t UniqueExecution::count(const std::function<bool(const Entry&)>& pred) const {
  std::size_t n = 0;
  for (const auto& [client, s] : sessions_) n += std::ranges::count_if(s.entries, pred);
  return n;
}

UniqueExecution::Session& UniqueExecution::session(ProcessId client) {
  return sessions_.try_emplace(client, Session{make_call_id(client, 0), {}, {}}).first->second;
}

std::pair<UniqueExecution::Entry*, bool> UniqueExecution::see(CallId id) {
  Session& s = session(call_client(id));
  const auto it = std::ranges::lower_bound(s.entries, id, {}, &Entry::id);
  if (it != s.entries.end() && it->id == id) return {&*it, false};
  if (id < s.floor && missed_at(s.missed, id) == s.missed.end()) return {nullptr, false};
  return {&*s.entries.insert(it, Entry{id, std::nullopt}), true};
}

void UniqueExecution::raise_floor(CallId w, Writer* out) {
  Session& s = session(call_client(w));
  if (w <= s.floor) return;
  // W's incarnation starts here; an older one is forgotten, its orphans
  // dropped.  Up to W, the ids not completed here join the missed ranges
  // and the completed ones are pruned.
  const CallId first{(w.value() & ~((std::uint64_t{1} << kIncarnationShift) - 1)) + 1};
  std::erase_if(s.missed, [first](const Range& m) { return m.second <= first; });
  CallId lo = std::max(s.floor, first);
  const auto end = std::ranges::lower_bound(s.entries, w, {}, &Entry::id);
  for (auto it = s.entries.begin(); it != end; ++it) {
    if (it->id < lo || !it->result) continue;
    if (lo < it->id) s.missed.emplace_back(lo, it->id);
    lo = next_call_id(it->id);
  }
  if (lo < w) s.missed.emplace_back(lo, w);
  s.entries.erase(std::remove_if(s.entries.begin(), end,
                                 [first](const Entry& e) { return e.result || e.id < first; }),
                  end);
  s.floor = w;
  if (out != nullptr) write_floor(*out, s);
}

void UniqueExecution::store_result(CallId id, const Buffer& result, Writer* out) {
  Session& s = session(call_client(id));
  if (id >= s.floor) {
    see(id).first->result = result;
  } else if (const auto m = missed_at(s.missed, id); m != s.missed.end()) {
    // Acknowledged already: it leaves its missed range, and its entry.
    const Range right{next_call_id(id), m->second};
    m->second = id;
    const auto next = m->first == m->second ? s.missed.erase(m) : m + 1;
    if (right.first < right.second) s.missed.insert(next, right);
    std::erase_if(s.entries, [id](const Entry& e) { return e.id == id; });
  } else {
    return;
  }
  if (out != nullptr) write_result(*out, id, result);
}

UniqueExecution::Owed& UniqueExecution::owed_entry(ProcessId server) {
  for (Owed& o : owed_) {
    if (o.server == server) return o;
  }
  return owed_.emplace_back(Owed{server, CallId{}});
}

void UniqueExecution::arm_flush() {
  if (flush_armed_) return;
  flush_armed_ = true;
  fw_->register_timeout("UniqueExec.flush_acks", idle_ack_delay_, [this]() -> sim::Task<> {
    flush_armed_ = false;
    flush_acks();
    co_return;
  });
}

void UniqueExecution::flush_acks() {
  const CallId w = state_.low_watermark();
  bool uncovered = false;
  for (Owed& o : owed_) {
    if (o.replied == CallId{}) continue;
    if (w <= o.replied) {
      uncovered = true;
      continue;
    }
    net::NetMessage ack;
    ack.type = net::MsgType::kAck;
    ack.sender = state_.my_id;
    ack.inc = state_.inc_number;
    ack.ackid = w.value();
    state_.net_push(o.server, ack);
    o.replied = CallId{};
    ++ack_messages_sent_;
  }
  // A Reply that W does not cover yet belongs to the call holding W back.
  // While that call is in flight it completes on its own, so look again
  // later.  A completed call that waits for the user to collect it may wait
  // forever, and a timer re-armed for it would keep an idle site from
  // quiescing; the next Reply arms the timer instead.  (With pRPC empty, an
  // uncovered Reply named no call this client issued.)
  if (uncovered && !state_.pRPC.empty() &&
      state_.pRPC.begin()->second.status == Status::kWaiting) {
    arm_flush();
  }
}

void UniqueExecution::call_from_net(runtime::EventContext& ctx) {
  const auto& msg = ctx.arg_as<net::NetMessage>();
  if (const auto w = call_watermark(msg)) raise_floor(*w, journal());
  const auto [entry, fresh] = see(msg.id);
  if (fresh) return;  // never seen here: execute it
  // A duplicate: running, completed, or completed and pruned below the
  // floor (or of an older incarnation).  Only a stored result is answered;
  // nothing is re-executed.
  ++duplicates_suppressed_;
  state_.note(obs::Kind::kDupSuppressed, msg.id.value());
  if (entry != nullptr && entry->result) {
    net::NetMessage reply;
    reply.type = net::MsgType::kReply;
    reply.id = msg.id;
    reply.op = msg.op;
    reply.args = *entry->result;
    reply.server = msg.server;
    reply.sender = state_.my_id;
    reply.inc = state_.inc_number;
    state_.net_push(msg.sender, reply);
  }
  ctx.cancel();
}

void UniqueExecution::encode_state(Writer& w) const {
  for (const auto& [client, s] : sessions_) {
    write_floor(w, s);
    for (const Entry& e : s.entries) {
      if (e.result) write_result(w, e.id, *e.result);
    }
  }
}

void UniqueExecution::apply(Reader& r) {
  // Replayed in order: a result stored and then pruned by a floor within
  // one chain ends up absent, exactly as on the live server.
  while (!r.at_end()) {
    const auto op = static_cast<Change>(r.u8());  // any u8 fits the enum
    const CallId id{r.u64()};
    if (op == Change::kFloor) {
      raise_floor(id, nullptr);
      std::vector<Range>& missed = session(call_client(id)).missed;
      missed.clear();
      for (std::uint64_t n = r.u64(); n > 0; --n) {
        missed.push_back(Range{CallId{r.u64()}, CallId{r.u64()}});  // braced: read in order
      }
    } else if (op == Change::kResultStored) {
      // A copy, not a slice: a slice would keep the whole checkpoint part
      // alive for as long as any one result stays stored.
      store_result(id, Buffer::copy_of(r.raw().bytes()), nullptr);
    } else {
      throw CodecError("Unique Execution: bad checkpoint change op");
    }
  }
}

}  // namespace ugrpc::core
