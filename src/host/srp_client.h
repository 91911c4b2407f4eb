// A host-side client for SRP, the source-routed debugging and monitoring
// protocol (section 6.7).  SRP packets are forwarded hop by hop by switch
// control processors using only the constant one-hop part of forwarding
// tables, so they keep working during reconfiguration — "a powerful tool
// for discovering functional and performance anomalies".
//
// The client issues a request along an explicit route of outbound switch
// ports and synchronously runs the simulation until the reply returns (or
// the deadline passes).  Higher-level helpers fetch a remote switch's
// state, its topology view, or its event-log tail, and CrawlTopology walks
// the whole fabric from the local switch outward.
#ifndef SRC_HOST_SRP_CLIENT_H_
#define SRC_HOST_SRP_CLIENT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/autopilot/messages.h"
#include "src/host/driver.h"
#include "src/sim/simulator.h"

namespace autonet {

class SrpClient {
 public:
  // Takes over the driver's receive handler for kSrp packets; every other
  // delivery chains through to whatever handler was installed before the
  // client (so installing an SRP client never silences other traffic).
  explicit SrpClient(AutonetDriver* driver);
  // Puts the displaced handler back if the client's is still the installed
  // one.  If another handler was chained over it since, the client's link
  // in that chain outlives it and passes every delivery through.
  ~SrpClient();

  SrpClient(const SrpClient&) = delete;
  SrpClient& operator=(const SrpClient&) = delete;

  // `route` lists the outbound port to take at each switch, starting from
  // the host's local switch; an empty route addresses the local switch.
  // Each call runs the simulation until the reply arrives.  `body` carries
  // the op's argument (e.g. the GetStats name filter).
  std::optional<SrpMsg> Query(SrpMsg::Op op,
                              const std::vector<std::uint8_t>& route,
                              Tick timeout = 5 * kSecond,
                              std::vector<std::uint8_t> body = {});

  std::optional<SrpState> GetState(const std::vector<std::uint8_t>& route,
                                   Tick timeout = 5 * kSecond);
  std::optional<NetTopology> GetTopology(
      const std::vector<std::uint8_t>& route, Tick timeout = 5 * kSecond);
  std::optional<std::string> GetLogTail(const std::vector<std::uint8_t>& route,
                                        Tick timeout = 5 * kSecond);
  bool Echo(const std::vector<std::uint8_t>& route,
            Tick timeout = 5 * kSecond);

  // Fetches the remote switch's metrics whose local names contain
  // `filter` (empty fetches everything that fits in one reply packet).
  // Names are switch-local (see SrpStat).
  std::optional<std::vector<SrpStat>> GetStats(
      const std::vector<std::uint8_t>& route, const std::string& filter = "",
      Tick timeout = 5 * kSecond);

  struct CrawlEntry {
    std::vector<std::uint8_t> route;  // from the local switch
    SrpState state;
  };
  // Fetches the local topology view, then queries every reachable switch's
  // state along BFS routes.  Returns the entries in BFS order.
  std::vector<CrawlEntry> CrawlTopology(Tick per_query_timeout = 5 * kSecond);

 private:
  // The installed receive handler.  It shares `Chain` with the client, so
  // it can tell whether the client still exists.
  struct Chain {
    SrpClient* client;  // nullptr once the client is destroyed
    AutonetDriver::ReceiveHandler chained;  // handler displaced at install
  };
  struct Hook {
    std::shared_ptr<Chain> chain;
    void operator()(Delivery d) const;
  };

  void OnDelivery(Delivery d);

  AutonetDriver* driver_;
  Simulator* sim_;
  std::shared_ptr<Chain> chain_;
  std::uint64_t next_id_ = 0;
  std::map<std::uint64_t, SrpMsg> replies_;
};

}  // namespace autonet

#endif  // SRC_HOST_SRP_CLIENT_H_
