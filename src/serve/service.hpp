// DiagnosisService: the immutable warm state + per-request compute of
// `scandiag serve`.
//
// Everything expensive is paid once at construction — circuit parse,
// levelization, pattern generation, fault-free simulation, cone caches (as
// they warm), PreparedPartitionSet — and shared read-only across requests.
// The only mutable compute state is the FaultSimulator lease pool:
// FaultSimulator is explicitly single-thread-at-a-time (mutable cone cache +
// scratch, see sim/fault_simulator.hpp), so the service owns N instances and
// handlers lease one per simulate() call, blocking when all are out.
//
// handle() implements the graceful-degradation half of the request
// lifecycle. Partitions are evaluated one at a time through
// SessionEngine::runPartition with the RunControl polled between them; when
// the per-request watchdog trips, the partitions that DID run are fed to
// DiagnosisRecovery — an intersection over fewer partitions is a guaranteed
// superset of the true failing cells — and the reply degrades to DEADLINE
// with confidence scaled by partitionsUsed/partitionsTotal. A cancellation
// that is NOT the watchdog (drain) unwinds as OperationCancelled instead:
// there is no client value in a partial answer the server chose to abandon.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "common/watchdog.hpp"
#include "diagnosis/experiment_driver.hpp"
#include "diagnosis/recovery.hpp"
#include "serve/protocol.hpp"
#include "sim/fault_simulator.hpp"

namespace scandiag::serve {

struct ServiceConfig {
  DiagnosisConfig diagnosis{};
  std::size_t numChains = 1;
  /// FaultSimulator instances in the lease pool. More = more concurrent
  /// InjectFault requests in their simulate() step, at one good-value store
  /// each. 1 keeps cone-cache counters deterministic (bench golden phase).
  std::size_t simulators = 1;
};

class DiagnosisService {
 public:
  /// Throws std::invalid_argument for the adaptive scheme or pruning (the
  /// per-partition loop below honours neither), or for more than
  /// kMaxThreadCount simulators, before building any simulator.
  DiagnosisService(Netlist netlist, const ServiceConfig& config);

  const Netlist& netlist() const { return netlist_; }
  const ServiceConfig& config() const { return config_; }
  const ScanTopology& topology() const { return topology_; }
  const DiagnosisPipeline& pipeline() const { return pipeline_; }

  /// Serves one request to a terminal reply (Ok / Deadline / Error — never
  /// Busy; admission is the server's job). `deadline` zero means none.
  /// `cancel` (optional) is the drain token; when it trips without the
  /// deadline having tripped, this throws OperationCancelled.
  DiagnoseReply handle(const DiagnoseRequest& request, std::uint64_t requestId,
                       std::chrono::milliseconds deadline, CancellationToken* cancel) const;

 private:
  /// RAII lease of one pool simulator; blocks until one is free.
  class SimulatorLease {
   public:
    explicit SimulatorLease(const DiagnosisService& service);
    ~SimulatorLease();
    const FaultSimulator& operator*() const { return *service_->simulators_[index_]; }

   private:
    const DiagnosisService* service_;
    std::size_t index_;
  };

  DiagnoseReply handleInject(const DiagnoseRequest& request, DiagnoseReply reply,
                             const RunControl& control, const Watchdog* deadline) const;
  DiagnoseReply handleLog(const DiagnoseRequest& request, DiagnoseReply reply,
                          const RunControl& control, const Watchdog* deadline) const;
  /// Defect-zoo scenario: regenerates the (spec, seed, index) scenario
  /// deterministically and diagnoses its permanent union overlay through the
  /// same per-partition deadline-aware loop (intermittent components are
  /// diagnosed at their permanent envelope — the sampled schedule is the
  /// batch ladder's, not the service's).
  DiagnoseReply handleDefect(const DiagnoseRequest& request, DiagnoseReply reply,
                             const RunControl& control, const Watchdog* deadline) const;
  /// The shared back half: per-partition evaluation of `response` under
  /// `control`, then recovery over the partitions that ran.
  DiagnoseReply diagnoseResponse(const FaultResponse& response, DiagnoseReply reply,
                                 const RunControl& control, const Watchdog* deadline) const;
  DiagnoseReply finishReply(DiagnoseReply reply, const RecoveredDiagnosis& recovered,
                            std::size_t partitionsUsed, bool deadlineHit) const;

  Netlist netlist_;
  ServiceConfig config_;
  ScanTopology topology_;
  PatternSet patterns_;
  DiagnosisPipeline pipeline_;
  DiagnosisRecovery recovery_;

  // Simulator lease pool (see class comment). Mutable: leases are compute-
  // state bookkeeping, not service configuration.
  std::vector<std::unique_ptr<FaultSimulator>> simulators_;
  mutable std::vector<std::size_t> freeSimulators_;
  mutable std::mutex simMutex_;
  mutable std::condition_variable simAvailable_;
};

}  // namespace scandiag::serve
