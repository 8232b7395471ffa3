// e2e_probe: the traced half of the end-to-end benchmark (run.py --trace 1).
//
// Calls each module's public functions in-process, with a steady_clock span
// around every call into a layer, on the same inputs the timed CLI runs
// use, and prints one JSON object of per-layer figures on stdout:
//
//   e2e_probe --db-fasta=db.fasta --delta-fasta=delta.fasta --index=db.mbi
//             --shards=db.shardset --calls=q0.fasta[,q1.fasta...]
//             --outfmt=tabular|pairwise --threads=T --nproc=N --work=DIR
//             --report-out=FILE
//   e2e_probe --pass-only --index=db.mbi --calls=... --outfmt=...
//             --threads=T --report-out=FILE
//
// One "pass" mirrors the workload's CLI calls: for every file in --calls
// it maps and verifies --index, parses the queries, searches them as one
// batch at --threads and renders the reports (written to --report-out, so
// the caller can check them against the CLI's). The other sections
// measure one layer each: FASTA parse and index build/save over
// --db-fasta, CRC32 over the index image, neighbor flattening, a thread
// sweep 1..N over half the queries, a process-mode search of the
// --shards manifest, and --delta-fasta appended to a private copy of the
// database (generation chain search, then --compact). The shard and chain
// reports are compared with the single-index ones; mismatches are counted
// in "probe.shard_mismatches" and "probe.chain_mismatches".
//
// --pass-only runs just the pass and prints its wall time
// ("probe.pass_wall_s"), the sum of its layer spans ("probe.pass_layers_s")
// and the call count ("probe.calls"): the caller times several of these
// against as many untraced CLI passes for the glue and tracing overhead.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/gen_chain.hpp"
#include "cluster/orchestrator.hpp"
#include "common/checksum.hpp"
#include "common/error.hpp"
#include "core/mublastp_engine.hpp"
#include "fasta/fasta.hpp"
#include "index/db_index.hpp"
#include "index/db_index_io.hpp"
#include "index/flat_lookup.hpp"
#include "index/generation.hpp"
#include "index/mapped_db_index.hpp"
#include "report/report.hpp"
#include "score/matrix.hpp"
#include "simd/dispatch.hpp"
#include "stats/stats.hpp"

namespace {

using namespace mublastp;

std::string arg(int argc, char** argv, const std::string& key,
                const std::string& fallback = "") {
  const std::string prefix = "--" + key + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind(prefix, 0) == 0) return a.substr(prefix.size());
  }
  return fallback;
}

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  for (std::string item; std::getline(ss, item, ',');) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Runs `fn` and returns its wall seconds: the span around one layer call.
template <typename Fn>
double span(Fn&& fn) {
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  MUBLASTP_CHECK_KIND(in.good(), ErrorKind::kIo, "cannot open " + path);
  return static_cast<std::uint64_t>(in.tellg());
}

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  MUBLASTP_CHECK_KIND(in.good(), ErrorKind::kIo, "cannot open " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  MUBLASTP_CHECK_KIND(out.good(), ErrorKind::kIo, "cannot write " + path);
}

MappedDbIndexOptions cli_load_options() {
  // What mublastp_search uses in its default (degraded) mode.
  MappedDbIndexOptions opts;
  opts.tolerate_block_corruption = true;
  opts.prefault = true;
  return opts;
}

SearchParams cli_params() {
  SearchParams params;
  params.max_alignments = 25;  // mublastp_search's --max-alignments default
  return params;
}

template <typename Db>
void render(std::ostream& os, const std::string& outfmt,
            const SequenceStore& queries, const Db& db,
            const std::vector<QueryResult>& results) {
  for (SeqId q = 0; q < queries.size(); ++q) {
    if (outfmt == "tabular") {
      write_tabular(os, queries.name(q), queries.sequence(q), db, results[q],
                    blosum62());
    } else {
      write_pairwise(os, queries.name(q), queries.sequence(q), db,
                     results[q], blosum62());
    }
  }
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double stage_sum(const stats::PipelineSnapshot& s) {
  double total = 0.0;
  for (double x : s.stage_seconds) total += x;
  return total;
}

/// One pass over the workload's calls, with a span around each layer.
struct Pass {
  SequenceStore queries;  // every call's queries, in call order
  std::string report;     // every call's rendered report, concatenated
  stats::PipelineSnapshot snap;
  double load_s = 0, parse_s = 0, search_s = 0, render_s = 0, flatten_s = 0;
  double wall_s = 0;  // the whole pass, less the flatten spans
};

Pass run_pass(const std::vector<std::string>& calls,
              const std::string& index_path, const std::string& outfmt,
              int threads) {
  Pass pass;
  const double begin = now_s();
  for (const std::string& call : calls) {
    std::optional<MappedDbIndex> mapped;
    pass.load_s +=
        span([&] { mapped.emplace(index_path, cli_load_options()); });
    SequenceStore queries;
    pass.parse_s += span([&] { read_fasta_file(call, queries); });
    const MuBlastpEngine engine(*mapped, cli_params());
    stats::PipelineStats ps;
    std::vector<QueryResult> results;
    pass.search_s +=
        span([&] { results = engine.search_batch(queries, threads, &ps); });
    pass.snap.merge(ps.snapshot());
    std::ostringstream os;
    pass.render_s +=
        span([&] { render(os, outfmt, queries, *mapped, results); });
    pass.report += os.str();
    // Flattening is timed on its own (index.flatten_us) and kept out of the
    // pass wall: the search builds the same tables inside its span.
    for (SeqId q = 0; q < queries.size(); ++q) {
      FlatNeighborhood flat;
      pass.flatten_s +=
          span([&] { flat.build(queries.sequence(q), mapped->neighbors()); });
      pass.queries.add(queries.sequence(q), queries.name(q));
    }
  }
  pass.wall_s = now_s() - begin - pass.flatten_s;
  return pass;
}

void print_figures(const std::map<std::string, double>& m) {
  std::printf("{\"kernel\": \"%s\"",
              simd::kernel_name(simd::default_kernel()));
  for (const auto& [key, value] : m) {
    std::printf(", \"%s\": %.10g", key.c_str(), value);
  }
  std::printf("}\n");
}

int run(int argc, char** argv) {
  const std::string db_fasta = arg(argc, argv, "db-fasta");
  const std::string delta_fasta = arg(argc, argv, "delta-fasta");
  const std::string index_path = arg(argc, argv, "index");
  const std::string shards_path = arg(argc, argv, "shards");
  const std::vector<std::string> calls =
      split_commas(arg(argc, argv, "calls"));
  const std::string outfmt = arg(argc, argv, "outfmt", "tabular");
  const std::string work = arg(argc, argv, "work");
  const std::string report_out = arg(argc, argv, "report-out");
  const int threads = std::atoi(arg(argc, argv, "threads", "1").c_str());
  const int nproc = std::atoi(arg(argc, argv, "nproc", "1").c_str());
  bool pass_only = false;
  for (int i = 1; i < argc; ++i) {
    pass_only = pass_only || std::string(argv[i]) == "--pass-only";
  }
  if (index_path.empty() || calls.empty() || report_out.empty() ||
      threads < 1 || (outfmt != "tabular" && outfmt != "pairwise") ||
      (!pass_only && (db_fasta.empty() || delta_fasta.empty() ||
                      shards_path.empty() || work.empty() || nproc < 1))) {
    std::fprintf(stderr, "usage: see the header of e2ebench/probe.cpp\n");
    return 2;
  }
  std::map<std::string, double> m;
  if (pass_only) {
    const Pass pass = run_pass(calls, index_path, outfmt, threads);
    write_file(report_out, pass.report);
    m["probe.pass_wall_s"] = pass.wall_s;
    m["probe.pass_layers_s"] =
        pass.load_s + pass.parse_s + pass.search_s + pass.render_s;
    m["probe.calls"] = static_cast<double>(calls.size());
    print_figures(m);
    return 0;
  }
  std::uint64_t shard_mismatches = 0, chain_mismatches = 0;

  // --- fasta + index build/save over the database FASTA -----------------
  SequenceStore db;
  const double parse_s = span([&] { read_fasta_file(db_fasta, db); });
  m["fasta.parse_mb_s"] = file_bytes(db_fasta) / 1e6 / parse_s;
  const std::string own_base = work + "/probe.mbi";
  {
    BuildTelemetry tel;
    std::optional<DbIndex> built;
    span([&] { built.emplace(DbIndex::build(db, DbIndexConfig{}, &tel)); });
    m["index.build_mres_s"] = db.total_residues() / 1e6 / tel.total_seconds;
    m["index.build_plan_s"] = tel.plan_seconds;
    m["index.save_s"] =
        span([&] { save_db_index_file_durable(own_base, *built); });
  }

  // --- index load and the CRC32 bound on it ------------------------------
  const std::uint64_t index_bytes = file_bytes(index_path);
  {
    std::vector<double> loads;
    for (int i = 0; i < 3; ++i) {
      loads.push_back(
          span([&] { MappedDbIndex mapped(index_path, cli_load_options()); }));
    }
    m["index.load_s"] = median(loads);
    m["index.load_mb_s"] = index_bytes / 1e6 / m["index.load_s"];
    const std::vector<char> image = read_bytes(index_path);
    std::vector<double> crcs;
    volatile std::uint32_t sink = 0;  // keeps the checksum computed
    for (int i = 0; i < 3; ++i) {
      crcs.push_back(span([&] { sink = crc32(image.data(), image.size()); }));
    }
    m["common.crc32_mb_s"] = image.size() / 1e6 / median(crcs);
  }

  // --- the pass: what the workload's CLI calls do, layer by layer --------
  const Pass pass = run_pass(calls, index_path, outfmt, threads);
  const SequenceStore& all_queries = pass.queries;
  const std::string& single_report = pass.report;
  const stats::PipelineSnapshot& pass_snap = pass.snap;
  write_file(report_out, single_report);
  m["index.flatten_us"] = pass.flatten_s * 1e6 / all_queries.size();
  m["report.render_s"] = pass.render_s;
  m["report.render_mb_s"] = single_report.size() / 1e6 / pass.render_s;
  m["core.search_s"] = pass.search_s;

  const stats::StageCounters& c = pass_snap.totals;
  const auto& st = pass_snap.stage_seconds;
  using stats::Stage;
  const auto sec = [&](Stage s) { return st[static_cast<int>(s)]; };
  m["core.hit_detect_thread_s"] = sec(Stage::kHitDetect);
  m["core.sort_thread_s"] = sec(Stage::kSort);
  m["core.ungapped_thread_s"] = sec(Stage::kUngapped);
  m["core.gapped_thread_s"] = sec(Stage::kGapped);
  m["core.finalize_thread_s"] = sec(Stage::kFinalize);
  m["core.ns_per_hit"] = ratio(sec(Stage::kHitDetect) * 1e9, c.hits);
  m["core.ns_per_sorted_record"] =
      ratio(sec(Stage::kSort) * 1e9, c.sorted_records);
  m["core.ns_per_ungapped_ext"] =
      ratio(sec(Stage::kUngapped) * 1e9, c.extensions);
  m["core.us_per_gapped_ext"] =
      ratio(sec(Stage::kGapped) * 1e6, c.gapped_extensions);
  m["core.hits"] = c.hits;
  m["core.hit_pairs"] = c.hit_pairs;
  m["core.extensions"] = c.extensions;
  m["core.ungapped_alignments"] = c.ungapped_alignments;
  m["core.gapped_extensions"] = c.gapped_extensions;
  m["core.prefilter_survival"] = ratio(c.hit_pairs, c.hits);
  m["core.ungapped_yield"] = ratio(c.ungapped_alignments, c.extensions);

  // Every banded gapped half settles at exactly one tier; the base is all
  // halves.
  const stats::GappedKernelStats& g = pass_snap.gapped_kernel;
  const double halves =
      static_cast<double>(g.int8_runs + g.int16_reruns + g.scalar_fallbacks);
  m["simd.int16_rerun_frac"] = ratio(g.int16_reruns, halves);
  m["simd.scalar_fallback_frac"] = ratio(g.scalar_fallbacks, halves);
  // The engine counts every scanned posting entry as a hit.
  m["simd.hit_tail_frac"] = ratio(pass_snap.hit_kernel.tail_entries, c.hits);

  // --- Algorithm 3 thread sweep ------------------------------------------
  // Over every other query (still mixed-length, half the cost), at 1..N
  // threads and then at 1 thread again: the 1-thread base sets every
  // efficiency, so it keeps the faster of its two runs.
  {
    SequenceStore sweep;
    for (SeqId q = 0; q < all_queries.size(); q += 2) {
      sweep.add(all_queries.sequence(q), all_queries.name(q));
    }
    MappedDbIndex mapped(index_path, cli_load_options());
    const MuBlastpEngine engine(mapped, cli_params());
    std::vector<double> wall(nproc + 1, 0.0), thread_s(nproc + 1, 0.0);
    for (int i = 1; i <= nproc + 1; ++i) {
      const int t = i <= nproc ? i : 1;
      stats::PipelineStats ps;
      const double w = span([&] { engine.search_batch(sweep, t, &ps); });
      if (wall[t] == 0.0 || w < wall[t]) {
        wall[t] = w;
        thread_s[t] = stage_sum(ps.snapshot());
      }
    }
    for (int t = 2; t <= nproc; ++t) {
      m["core.scaling_eff_t" + std::to_string(t)] = wall[1] / (t * wall[t]);
    }
    m["core.thread_s_inflation"] = thread_s[nproc] / thread_s[1];
  }

  // --- cluster: process-mode shards, then the generation chain -----------
  {
    cluster::ShardSetOptions sopts;
    sopts.params = cli_params();
    stats::DegradedStats deg;
    std::optional<cluster::ShardSet> set;
    m["cluster.shard_load_s"] = span(
        [&] { set.emplace(cluster::ShardSet::load(shards_path, sopts, &deg)); });
    cluster::ShardedSearchResult res;
    m["cluster.sharded_search_s"] = span([&] {
      res = cluster::search_sharded(*set, all_queries, threads,
                                    cluster::ShardWorkerMode::kProcess);
    });
    m["cluster.imbalance_measured"] = res.shards.imbalance_measured;
    m["cluster.imbalance_predicted"] = res.shards.imbalance_predicted;
    std::ostringstream os;
    render(os, outfmt, all_queries, set->global_db(), res.results);
    if (os.str() != single_report || res.degraded.partial) {
      ++shard_mismatches;
    }
  }
  {
    // A single-index search of exactly the sharded queries, as the base.
    MappedDbIndex mapped(index_path, cli_load_options());
    const MuBlastpEngine engine(mapped, cli_params());
    const double single_s =
        span([&] { engine.search_batch(all_queries, threads); });
    m["cluster.shard_overhead"] = m["cluster.sharded_search_s"] / single_s;
  }
  {
    SequenceStore delta;
    read_fasta_file(delta_fasta, delta);
    m["index.append_s"] =
        span([&] { append_generation(own_base, delta); });
    cluster::GenChainOptions copts;
    copts.params = cli_params();
    stats::DegradedStats deg;
    std::string chain_report;
    double chain_search_s = 0.0;
    {
      std::optional<cluster::GenerationChain> chain;
      m["cluster.chain_load_s"] = span([&] {
        chain.emplace(cluster::GenerationChain::load(own_base, copts, &deg));
      });
      cluster::ChainSearchResult res;
      chain_search_s = span(
          [&] { res = cluster::search_chain(*chain, all_queries, threads); });
      std::ostringstream os;
      render(os, outfmt, all_queries, chain->global_db(), res.results);
      chain_report = os.str();
      if (res.degraded.partial) ++chain_mismatches;
    }
    CompactResult compacted;
    m["index.compact_s"] =
        span([&] { compacted = compact_generations(own_base); });
    MappedDbIndex mapped(compacted.compact_path, cli_load_options());
    const MuBlastpEngine engine(mapped, cli_params());
    std::vector<QueryResult> results;
    const double single_s =
        span([&] { results = engine.search_batch(all_queries, threads); });
    m["cluster.chain_overhead"] = chain_search_s / single_s;
    std::ostringstream os;
    render(os, outfmt, all_queries, mapped, results);
    if (os.str() != chain_report) ++chain_mismatches;
  }

  m["probe.shard_mismatches"] = static_cast<double>(shard_mismatches);
  m["probe.chain_mismatches"] = static_cast<double>(chain_mismatches);
  print_figures(m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_probe: %s\n", e.what());
    return 1;
  }
}
