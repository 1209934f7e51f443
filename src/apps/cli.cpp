#include "apps/cli.hpp"

#include <string>

#include "core/report.hpp"
#include "fault/fault.hpp"
#include "fault/integrity.hpp"
#include "flow/flow.hpp"
#include "ft/recovery.hpp"
#include "obs/link_usage.hpp"
#include "obs/timeline.hpp"
#include "util/error.hpp"

namespace pgasq::apps {

armci::WorldConfig make_world_config(const Config& cli, int default_ranks,
                                     int default_ranks_per_node) {
  armci::WorldConfig cfg;
  cfg.machine.num_ranks =
      static_cast<int>(cli.get_int("ranks", default_ranks));
  cfg.machine.ranks_per_node =
      static_cast<int>(cli.get_int("ranks_per_node", default_ranks_per_node));
  cfg.machine.network_model = cli.get_string("net", "loggp");
  cfg.machine.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));

  const std::string progress = cli.get_string("progress", "default");
  if (progress == "async") {
    cfg.armci.progress = armci::ProgressMode::kAsyncThread;
    cfg.armci.contexts_per_rank = static_cast<int>(cli.get_int("contexts", 2));
  } else {
    PGASQ_CHECK(progress == "default", << "progress=" << progress);
    cfg.armci.progress = armci::ProgressMode::kDefault;
    cfg.armci.contexts_per_rank = static_cast<int>(cli.get_int("contexts", 1));
  }
  const std::string consistency = cli.get_string("consistency", "region");
  if (consistency == "target") {
    cfg.armci.consistency = armci::ConsistencyMode::kPerTarget;
  } else {
    PGASQ_CHECK(consistency == "region", << "consistency=" << consistency);
    cfg.armci.consistency = armci::ConsistencyMode::kPerRegion;
  }
  cfg.machine.params.hardware_amo = cli.get_bool("hardware_amo", false);
  cfg.machine.fault = fault::FaultPlan::from_config(cli);
  // End-to-end integrity knobs (--integrity.verify, --integrity.crc_*
  // etc.); the layer also self-arms when --fault.corrupt_prob is set.
  cfg.machine.integrity = fault::IntegrityConfig::from_config(cli);
  // Fail-stop detection knobs (--ft.heartbeat_period_us etc.); inert
  // unless the fault plan also schedules node deaths. The checkpoint
  // cadence (--ft.checkpoint_interval) is app-level — programs that run
  // SCF pick it up from the same parse via ft::RuntimeConfig.
  cfg.machine.ft = ft::RuntimeConfig::from_config(cli).liveness;
  // Overload-control knobs (--flow.credits, --flow.deadline_us,
  // --flow.admit ...). All off by default — with flow.* unset no
  // controller is built and runs stay byte-identical.
  cfg.machine.flow = flow::FlowConfig::from_config(cli);
  // Collectives-engine knobs ride through opaquely: every "--coll.*"
  // key is handed to coll::CollConfig with the prefix stripped, e.g.
  // --coll.algo.allreduce=torus-ring or --coll.hw=0.
  for (const std::string& key : cli.keys()) {
    if (key.rfind("coll.", 0) == 0) {
      cfg.armci.coll.emplace_back(key.substr(5), cli.get_string(key, ""));
    }
    // Async-runtime knobs the same way: every "--async.*" key goes to
    // async::AsyncConfig with the prefix stripped (unknown keys are
    // rejected there). With async.* unset no runtime behavior changes.
    if (key.rfind("async.", 0) == 0) {
      cfg.armci.async.emplace_back(key.substr(6), cli.get_string(key, ""));
    }
  }
  // Observability (--trace.*, --obs.*): all off by default — untraced
  // runs stay byte-identical.
  pami::configure_observability(cli, cfg.machine);
  return cfg;
}

void reject_swept(const Config& cli, std::initializer_list<const char*> keys,
                  const char* sweep) {
  for (const char* key : keys) {
    PGASQ_CHECK(!cli.has(key), << key << " is set by " << sweep << "; drop --" << key);
  }
}

void emit_observability(const Config& cli, const armci::World& world) {
  const std::string report_path = cli.get_string("report.json_path", "");
  if (!report_path.empty()) armci::write_json_report(world, report_path);
  const std::string link_csv = cli.get_string("obs.link_csv", "");
  const std::string timeline_csv = cli.get_string("obs.timeline_csv", "");
  const obs::LinkUsage* lu = world.machine().link_usage();
  if (lu != nullptr && !link_csv.empty()) lu->write_csv(link_csv);
  const obs::Timeline* tl = world.machine().timeline();
  if (tl != nullptr && !timeline_csv.empty()) tl->write_csv(timeline_csv);
}

}  // namespace pgasq::apps
