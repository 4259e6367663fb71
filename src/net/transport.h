// The pluggable transport abstraction the µGRPC stack programs against.
//
// The paper's composite protocol is transport-agnostic: micro-protocols sit
// on an x-kernel-style framework whose only contract with the layer below is
// push (send/multicast) and pop (demultiplexed packet delivery).  Transport
// captures that contract plus the ambient services every layer above needs:
//
//   * attach/detach       -- bind a process to the fabric, yielding an
//                            Endpoint for traffic and demux registration;
//   * groups              -- named member lists for sender-side multicast;
//   * process-up control  -- crash modelling of attached processes;
//   * clock + timers      -- now()/schedule_after()/cancel_timer(), the only
//                            way protocol layers may arm timers;
//   * threads of control  -- spawn()/kill_domain(), one fiber per delivered
//                            packet or timeout, killable per crashing site.
//
// Two implementations exist: SimTransport (sim_transport.h) over the
// deterministic simulated fabric, and UdpTransport (udp_transport.h) over
// real non-blocking UDP sockets between OS processes.  Both put the same
// net::Fabric (fabric.h) behind push and pop -- demux, groups, unroutable
// accounting, delivery and Stats -- so a packet's life above the wire, and
// what the trace and the counters say about it, is identical on both; only
// the wire differs.
//
// Both backends execute protocol code on a single-threaded cooperative
// sim::Scheduler; executor() exposes it for the semaphore (sim::Semaphore)
// and fiber-level control (current_fiber, kill) that are executor concerns
// rather than transport concerns.  Under SimTransport the executor runs in
// virtual time; under UdpTransport its clock is slaved to the host's
// monotonic clock.
#pragma once

#include <functional>
#include <vector>

#include "common/ids.h"
#include "net/fabric.h"
#include "sim/scheduler.h"
#include "sim/task.h"
#include "sim/time.h"

namespace ugrpc::net {

class Transport {
 public:
  virtual ~Transport() = default;

  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  // ---- attachment ----

  /// Attaches a process; `domain` is the executor domain its delivery
  /// fibers run in (killed when the site crashes).  The returned reference
  /// stays valid until the process is detached.  Attaching an
  /// already-attached process is a fatal error; attach after detach starts a
  /// fresh attachment (empty demux table, next incarnation on backends that
  /// tag frames).
  virtual Endpoint& attach(ProcessId process, DomainId domain) = 0;

  /// Removes the attachment; the Endpoint reference becomes invalid.
  /// Packets in flight to a detached process are dropped on delivery.
  virtual void detach(ProcessId process) = 0;

  // ---- groups (sender-side multicast fan-out) ----

  virtual void define_group(GroupId group, std::vector<ProcessId> members) = 0;
  /// Members of a defined group; fatal on an undefined one.
  [[nodiscard]] virtual const std::vector<ProcessId>& group_members(GroupId group) const = 0;

  // ---- process-up control (crash modelling of attached processes) ----

  /// Marks an attached process up/down.  Down processes neither send nor
  /// receive.  Processes elsewhere (other OS processes over UDP) crash for
  /// real.
  virtual void set_process_up(ProcessId process, bool up) = 0;
  /// True when `process` is attached here and up.
  [[nodiscard]] virtual bool process_up(ProcessId process) const = 0;

  // ---- clock + timers ----

  /// Current time: virtual under SimTransport, microseconds of real time
  /// since transport construction under UdpTransport.
  [[nodiscard]] virtual sim::Time now() const = 0;

  /// Runs `fn` at now()+delay.  The callback executes inline in the driving
  /// loop (it typically spawns a fiber or releases a semaphore); `domain`
  /// ties the timer to a crashable site (cancelled by kill_domain).
  virtual TimerId schedule_after(sim::Duration delay, std::function<void()> fn,
                                 DomainId domain = sim::kGlobalDomain) = 0;
  /// Cancels a pending timer; no-op if it already fired or was cancelled.
  virtual void cancel_timer(TimerId id) = 0;

  // ---- threads of control ----

  /// Starts a new fiber running `task`, tagged with `domain`.
  virtual FiberId spawn(sim::Task<> task, DomainId domain = sim::kGlobalDomain) = 0;
  /// Kills every fiber of `domain` and cancels the domain's timers (both
  /// the executor's and the transport's).  Models a site crash.
  virtual void kill_domain(DomainId domain) = 0;

  /// The cooperative executor protocol code runs on.  For the semaphore
  /// (sim::Semaphore) and fiber-level introspection
  /// (current_fiber, kill); traffic and timers must go through the
  /// Transport interface, never through the executor directly.
  [[nodiscard]] virtual sim::Scheduler& executor() = 0;

  // ---- observability ----

  [[nodiscard]] virtual const Stats& stats() const = 0;
};

}  // namespace ugrpc::net
