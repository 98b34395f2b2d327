// Fig. 2 fingerprint: the paper's flash crowd on the demo network, with the
// controller on and off, at 1 and 2 Mb/s, tracing on, B-R2 failed at 40 s
// and restored at 50 s, run to 80 s. Prints, per run, the telemetry table,
// the controller's mitigations and active lies, every viewer's QoE at full
// precision, and each link's byte counter and rate.
//
// A change that must leave the scenario bit-identical is checked by building
// this driver in both trees and comparing the outputs:
//   ./build/fig2_fingerprint > new.txt
//   diff old.txt new.txt

#include <cstdio>

#include "support/scenario.hpp"

using namespace fibbing;

int main() {
  for (const bool controller : {true, false}) {
    for (const double bitrate_bps : {1e6, 2e6}) {
      core::ServiceConfig config = support::demo_config(controller);
      config.tracing = true;
      support::PaperScenario scenario(config);
      scenario.schedule_fig2({bitrate_bps, 300.0});
      const topo::PaperTopology& p = scenario.p;
      support::schedule_link_failure(scenario.service, 40.0, p.b, p.r2);
      support::schedule_link_restore(scenario.service, 50.0, p.b, p.r2);
      scenario.run_until(80.0);

      core::FibbingService& service = scenario.service;
      std::printf("== controller %s, bitrate %.17g b/s\n", controller ? "on" : "off",
                  bitrate_bps);
      std::printf("telemetry %s\n", service.telemetry_json().c_str());
      std::printf("mitigations %d, active lies %zu\n", service.controller().mitigations(),
                  service.controller().active_lie_count());
      for (const video::Qoe& q : service.video().all_qoe()) {
        std::printf("qoe startup %.17g stalls %d stalled %.17g played %.17g finished %d\n",
                    q.startup_delay_s, q.stall_count, q.stall_time_s, q.played_s,
                    q.finished ? 1 : 0);
      }
      for (topo::LinkId l = 0; l < p.topo.link_count(); ++l) {
        std::printf("link %s-%s bytes %llu rate %.17g\n",
                    p.topo.node(p.topo.link(l).from).name.c_str(),
                    p.topo.node(p.topo.link(l).to).name.c_str(),
                    static_cast<unsigned long long>(service.sim().link_bytes(l)),
                    service.sim().link_rate(l));
      }
    }
  }
  return 0;
}
