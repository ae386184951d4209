// Shared builders for unit tests: small, fully-known experiments.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "model/experiment.hpp"
#include "model/system_factory.hpp"

namespace cube::testing {

/// Metadata of make_small, without severity:
///
/// Metrics:  time (sec) -> mpi (sec); visits (occ)
/// Program:  main -> work -> MPI_Send; main -> io
/// System:   machine "m0", node "n0", processes 0 and 1, 2 threads each
inline std::unique_ptr<Metadata> small_metadata() {
  auto md = std::make_unique<Metadata>();
  const Metric& time =
      md->add_metric(nullptr, "time", "Time", Unit::Seconds, "total");
  md->add_metric(&time, "mpi", "MPI", Unit::Seconds, "mpi time");
  md->add_metric(nullptr, "visits", "Visits", Unit::Occurrences, "visits");

  const Region& r_main = md->add_region("main", "app.c", 1, 100);
  const Region& r_work = md->add_region("work", "app.c", 10, 50);
  const Region& r_send = md->add_region("MPI_Send", "mpi", -1, -1);
  const Region& r_io = md->add_region("io", "app.c", 60, 80);
  const Cnode& c_main = md->add_cnode_for_region(nullptr, r_main, "app.c", 1);
  const Cnode& c_work = md->add_cnode_for_region(&c_main, r_work, "app.c", 12);
  md->add_cnode_for_region(&c_work, r_send, "app.c", 30);
  md->add_cnode_for_region(&c_main, r_io, "app.c", 62);

  Machine& machine = md->add_machine("m0");
  SysNode& node = md->add_node(machine, "n0");
  for (long rank = 0; rank < 2; ++rank) {
    Process& p =
        md->add_process(node, "rank " + std::to_string(rank), rank);
    md->add_thread(p, "thread 0", 0);
    md->add_thread(p, "thread 1", 1);
  }
  return md;
}

/// Metadata of make_variant: differs from small_metadata in each
/// dimension — an extra metric tree ("flops"), a different call-tree
/// branch (main -> net instead of io), and an extra process rank 2.
inline std::unique_ptr<Metadata> variant_metadata() {
  auto md = std::make_unique<Metadata>();
  const Metric& time =
      md->add_metric(nullptr, "time", "Time", Unit::Seconds, "total");
  md->add_metric(&time, "mpi", "MPI", Unit::Seconds, "mpi time");
  md->add_metric(nullptr, "flops", "FLOPs", Unit::Occurrences, "flops");

  const Region& r_main = md->add_region("main", "app.c", 1, 100);
  const Region& r_work = md->add_region("work", "app.c", 10, 50);
  const Region& r_send = md->add_region("MPI_Send", "mpi", -1, -1);
  const Region& r_net = md->add_region("net", "app.c", 82, 95);
  const Cnode& c_main = md->add_cnode_for_region(nullptr, r_main, "app.c", 1);
  const Cnode& c_work =
      md->add_cnode_for_region(&c_main, r_work, "app.c", 999);  // line moved
  md->add_cnode_for_region(&c_work, r_send, "app.c", 30);
  md->add_cnode_for_region(&c_main, r_net, "app.c", 84);

  Machine& machine = md->add_machine("other-machine");
  SysNode& node = md->add_node(machine, "n0");
  for (long rank = 0; rank < 3; ++rank) {
    Process& p =
        md->add_process(node, "rank " + std::to_string(rank), rank);
    md->add_thread(p, "thread 0", 0);
    md->add_thread(p, "thread 1", 1);
  }
  return md;
}

/// A small experiment with a deterministic severity pattern filling
/// EVERY cell: value(m, c, t) = (m+1)*100 + (c+1)*10 + (t+1).
inline Experiment make_small(StorageKind kind = StorageKind::Dense,
                             const std::string& name = "small") {
  Experiment e(small_metadata(), kind);
  e.set_name(name);
  const Metadata& m = e.metadata();
  for (MetricIndex mi = 0; mi < m.num_metrics(); ++mi) {
    for (CnodeIndex ci = 0; ci < m.num_cnodes(); ++ci) {
      for (ThreadIndex ti = 0; ti < m.num_threads(); ++ti) {
        e.severity().set(mi, ci, ti,
                         static_cast<double>((mi + 1) * 100 + (ci + 1) * 10 +
                                             (ti + 1)));
      }
    }
  }
  return e;
}

/// make_small's sibling over variant_metadata, every cell filled with
/// 1000 + the same pattern.  Used by the integration tests.
inline Experiment make_variant(StorageKind kind = StorageKind::Dense,
                               const std::string& name = "variant") {
  Experiment e(variant_metadata(), kind);
  e.set_name(name);
  const Metadata& m = e.metadata();
  for (MetricIndex mi = 0; mi < m.num_metrics(); ++mi) {
    for (CnodeIndex ci = 0; ci < m.num_cnodes(); ++ci) {
      for (ThreadIndex ti = 0; ti < m.num_threads(); ++ti) {
        e.severity().set(mi, ci, ti,
                         1000.0 + static_cast<double>((mi + 1) * 100 +
                                                      (ci + 1) * 10 +
                                                      (ti + 1)));
      }
    }
  }
  return e;
}

/// A minimal 1-metric experiment whose "time" metric is measured in
/// Occurrences instead of Seconds — the canonical unit-conflict operand
/// against make_small (shared metric unique name, different unit).
inline Experiment make_unit_clash(const std::string& name = "clash") {
  auto md = std::make_unique<Metadata>();
  md->add_metric(nullptr, "time", "Time", Unit::Occurrences,
                 "time, miscounted");
  const Region& r_main = md->add_region("main", "app.c", 1, 100);
  md->add_cnode_for_region(nullptr, r_main, "app.c", 1);
  Machine& machine = md->add_machine("m0");
  SysNode& node = md->add_node(machine, "n0");
  Process& p = md->add_process(node, "rank 0", 0);
  md->add_thread(p, "thread 0", 0);
  Experiment e(std::move(md), StorageKind::Dense);
  e.set_name(name);
  e.severity().set(0, 0, 0, 1.0);
  return e;
}

/// Metadata whose call tree holds sibling call sites of one callee at
/// different lines: main calls `leaf` from three lines and `work` from
/// two, and the three `leaf` subtrees overlap again (`inner`, `work`).
/// Integration matches cnodes by callee, not line, so it merges such
/// siblings — and their subtrees — into one cnode: the operand's cnode
/// map COALESCES up to three source rows onto one result row (13 source
/// cnodes onto 7).  Five metrics (a chain of four plus one root) and
/// eight single-threaded processes.  `line_shift` moves every call-site
/// line, giving a digest-distinct variant that integrates onto the same
/// cnodes.
inline std::unique_ptr<Metadata> coalescing_metadata(long line_shift = 0) {
  auto md = std::make_unique<Metadata>();
  const Metric* parent = nullptr;
  for (int i = 0; i < 5; ++i) {
    if (i % 4 == 0) parent = nullptr;
    parent = &md->add_metric(parent, "m" + std::to_string(i),
                             "m" + std::to_string(i), Unit::Seconds, "");
  }

  const Region& r_main = md->add_region("main", "app.c", 1, 100);
  const Region& r_leaf = md->add_region("leaf", "app.c", 110, 120);
  const Region& r_inner = md->add_region("inner", "app.c", 130, 140);
  const Region& r_work = md->add_region("work", "app.c", 150, 160);
  const Region& r_io = md->add_region("io", "app.c", 170, 180);
  const auto call = [&](const Cnode* caller, const Region& callee,
                        long line) -> const Cnode& {
    return md->add_cnode_for_region(caller, callee, "app.c",
                                    line + line_shift);
  };
  const Cnode& main = call(nullptr, r_main, 1);
  const Cnode& leaf5 = call(&main, r_leaf, 5);
  call(&leaf5, r_inner, 20);
  call(&leaf5, r_work, 30);
  call(&main, r_work, 40);
  const Cnode& leaf9 = call(&main, r_leaf, 9);
  call(&leaf9, r_inner, 22);
  call(&main, r_io, 50);
  const Cnode& leaf13 = call(&main, r_leaf, 13);
  call(&leaf13, r_work, 31);
  const Cnode& inner25 = call(&leaf13, r_inner, 25);
  call(&inner25, r_work, 26);
  call(&main, r_work, 44);

  build_regular_system(*md, "test machine", 1, 8);
  return md;
}

/// An experiment over coalescing_metadata(line_shift) with a seeded
/// severity of the requested fill rate, negative values included.
inline Experiment make_coalescing(std::uint64_t seed, double fill,
                                  StorageKind kind = StorageKind::Dense,
                                  long line_shift = 0) {
  Experiment e(coalescing_metadata(line_shift), kind);
  e.set_name("coalescing" + std::to_string(seed));
  SplitMix64 rng(seed);
  const Metadata& m = e.metadata();
  for (MetricIndex mi = 0; mi < m.num_metrics(); ++mi) {
    for (CnodeIndex ci = 0; ci < m.num_cnodes(); ++ci) {
      for (ThreadIndex ti = 0; ti < m.num_threads(); ++ti) {
        if (rng.uniform() < fill) {
          e.severity().set(mi, ci, ti, rng.uniform(-5.0, 10.0));
        }
      }
    }
  }
  return e;
}

}  // namespace cube::testing
