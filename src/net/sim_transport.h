// The benchmark harness (perfbench/probes.cc) spells a simulator transport
// as `net::SimTransport transport{net};`.  net::Network is itself a
// net::Transport, so this alias makes that line bind a reference to the
// Network.  Other code passes the Network wherever a Transport& is taken.
#pragma once

#include "net/network.h"

namespace ugrpc::net {

using SimTransport = Network&;

}  // namespace ugrpc::net
