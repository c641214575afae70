#include "src/benchmarks/registry.hpp"

#include "src/benchmarks/templates.hpp"
#include "src/stg/generators.hpp"
#include "src/util/error.hpp"

namespace punt::benchmarks {
namespace {

std::vector<Benchmark> build_table1() {
  // Helper notes.
  const std::string kChain = "substitute: sequential handshake ring (same Sigs)";
  const std::string kFork = "substitute: concurrent fork-join controller (same Sigs)";
  const std::string kChoice = "substitute: free-choice mode controller (same Sigs)";
  const std::string kPipe = "substitute: Muller pipeline stage chain (same Sigs)";

  std::vector<Benchmark> rows;
  auto add = [&rows](std::string name, std::size_t sigs, std::function<stg::Stg()> make,
                     std::string note, double tot, std::size_t lit, std::size_t lit2) {
    Benchmark b;
    b.name = std::move(name);
    b.signals = sigs;
    b.make = std::move(make);
    b.note = std::move(note);
    b.paper_total_time = tot;
    b.paper_literals = lit;
    b.paper_other_literals = lit2;
    rows.push_back(std::move(b));
  };

  using V = std::vector<std::size_t>;
  add("imec-master-read.csc", 18,
      [] { return choice_controller("imec-master-read.csc", V{8, 8}); }, kChoice, 77.00, 83, 69);
  add("nowick.asn", 7, [] { return choice_controller("nowick.asn", V{2, 3}); }, kChoice,
      0.97, 17, 20);
  add("nowick", 6, [] { return choice_controller("nowick", V{2, 2}); }, kChoice, 0.57, 15, 14);
  add("par_4.csc", 14, [] { return fork_join("par_4.csc", V{3, 3, 3, 4}); }, kFork, 3.63, 36, 36);
  add("sis-master-read.csc", 14,
      [] { return choice_controller("sis-master-read.csc", V{6, 6}); }, kChoice, 5.78, 48, 48);
  add("tsbmSIBRK", 25, [] { return choice_controller("tsbmSIBRK", V{8, 7, 7}); },
      kChoice, 42.70, 72, 72);
  add("pn_stg_example", 6,
      [] { return fork_join("pn_stg_example", V{1, 1, 1, 1, 1}); }, kFork, 1.77, 19, 19);
  add("forever_ordered", 8, [] { return handshake_chain("forever_ordered", 8); },
      kChain, 1.46, 20, 16);
  add("alloc-outbound", 9, [] { return choice_controller("alloc-outbound", V{3, 4}); },
      kChoice, 0.85, 16, 16);
  add("mp-forward-pkt", 20,
      [] { return fork_join("mp-forward-pkt", V{5, 5, 5, 4}); }, kFork, 0.83, 17, 17);
  add("nak-pa", 10, [] { return choice_controller("nak-pa", V{4, 4}); }, kChoice, 0.96, 20, 20);
  add("pe-send-ifc", 17, [] { return choice_controller("pe-send-ifc", V{7, 8}); },
      kChoice, 2.53, 68, 75);
  add("ram-read-sbuf", 11,
      [] { return fork_join("ram-read-sbuf", V{2, 2, 2, 2, 2}); }, kFork, 1.08, 25, 22);
  add("rcv-setup", 5, [] { return choice_controller("rcv-setup", V{2, 1}); }, kChoice, 0.25, 8, 8);
  add("sbuf-ram-write", 12, [] { return stg::make_muller_pipeline(11); }, kPipe, 1.48, 23, 23);
  add("sbuf-read-ctl.old", 8, [] { return fork_join("sbuf-read-ctl.old", V{3, 4}); },
      kFork, 0.86, 15, 15);
  add("sbuf-read-ctl", 8, [] { return stg::make_muller_pipeline(7); }, kPipe, 0.71, 15, 15);
  add("sbuf-send-ctl", 8, [] { return choice_controller("sbuf-send-ctl", V{3, 3}); },
      kChoice, 0.88, 19, 19);
  add("sbuf-send-pkt2", 9, [] { return fork_join("sbuf-send-pkt2", V{2, 2, 2, 2}); },
      kFork, 0.99, 19, 19);
  add("sbuf-send-pkt2.yun", 9, [] { return fork_join("sbuf-send-pkt2.yun", V{4, 4}); },
      kFork, 1.07, 31, 31);
  add("sendr-done", 4, [] { return handshake_chain("sendr-done", 4); }, kChain, 0.23, 6, 6);
  return rows;
}

}  // namespace

const std::vector<Benchmark>& table1() {
  static const std::vector<Benchmark> rows = build_table1();
  return rows;
}

const Benchmark& find(const std::string& name) {
  for (const Benchmark& b : table1()) {
    if (b.name == name) return b;
  }
  throw ValidationError("unknown benchmark '" + name + "'");
}

}  // namespace punt::benchmarks
