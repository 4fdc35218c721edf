// pnbench — the workload process of the end-to-end benchmark (README.md in
// this directory). run.py builds it, runs it under a wall-clock budget and
// turns its records into metrics.
//
//   pnbench --workload encode-cold|traverse-cold|serve-warm --seed N
//           --seconds S --trace 0|1 --expected FILE --workdir DIR
//           [--tiny] [--spans FILE] [--transcript FILE]
//   pnbench --explicit SPEC
//
// Output: one JSON record per line on stdout, flushed as it is produced, so
// a run killed by the wall-clock budget still leaves every finished
// operation behind:
//   {"rec":"env",...}         build facts
//   {"rec":"setup","s":X}     one timed set-up (repeated, see kMinSetups)
//   {"rec":"setup_trace",...} traced serve-warm: standalone snapshot save
//   {"rec":"rotation","pass":P,"ops":K}   the next K ops form one rotation
//   {"rec":"op",...}          one operation (analysis, open or query line)
//   {"rec":"counters",...}    traced serve-warm: kernel counters per session
//   {"rec":"done","rss_mb":X,"rss_reset":B}   peak RSS since prepare()
// Every answer is checked against expected values that do not come from the
// symbolic path under test; a mismatch is an op with "ok":false and is also
// printed to stderr.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "encoding/encoding.hpp"
#include "linalg/invariants.hpp"
#include "petri/explicit_reach.hpp"
#include "petri/generators.hpp"
#include "petri/net_spec.hpp"
#include "query/query.hpp"
#include "query/query_report.hpp"
#include "server/server.hpp"
#include "smc/covering.hpp"
#include "smc/smc.hpp"
#include "snapshot/snapshot.hpp"
#include "symbolic/symbolic.hpp"
#include "symbolic/zdd_context.hpp"

namespace {

using namespace pnenc;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

const Clock::time_point kEpoch = Clock::now();

// encode-cold's seeded draw: kRspDraws nets from gen::random_sm_product.
constexpr int kRspDraws = 64;
constexpr int kRspMachines = 7;
constexpr int kRspPlaces = 5;
constexpr double kRspSync = 0.3;
// The explicit-state oracle gives up past this many markings.
constexpr std::size_t kExplicitCap = 5'000'000;
// Set-up is repeated at least kMinSetups times and until kSetupSeconds have
// been spent on it; setup_s is the median.
constexpr int kMinSetups = 8;
constexpr double kSetupSeconds = 1.0;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
double now_ms() { return ms_between(kEpoch, Clock::now()); }



std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jnum(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string jmap(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ",";
    out += jstr(k) + ":" + jnum(v);
  }
  return out + "}";
}

/// Exact decimal rendering of an integral count held in a double (every
/// count this benchmark checks is an integer below 2^53 or a power of two,
/// so "%.0f" is exact).
std::string exact(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.0f", v);
  return buf;
}

std::string fmt6g(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// splitmix64: a fixed, library-independent generator, so a seed names the
/// same inputs on every standard library.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
};

void emit(const std::string& record) {
  std::fwrite(record.data(), 1, record.size(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Tracing: spans around the public calls this program makes, kept in memory
// and written at exit. A span's self time is its duration minus its
// children's. Where a public function calls into another layer, the inner
// call is timed standalone on the same input and recorded as a child, so the
// outer span's self time excludes it; standalone time is excluded from the
// enclosing operation's duration, which keeps per-op self times summing to
// the operation's duration.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  double excluded_ms = 0.0;  // standalone timings run while this span was open
  int parent = -1;
  long op = -1;
  bool standalone = false;

  [[nodiscard]] double duration() const {
    return end_ms - start_ms - excluded_ms;
  }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  void begin_op(long op) {
    op_ = op;
    first_ = spans_.size();
    stack_.clear();
    excluded_ = 0.0;
  }

  int open(const char* name) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.op = op_;
    s.start_ms = now_ms();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int idx) {
    if (idx < 0) return;
    spans_[idx].end_ms = now_ms();
    stack_.pop_back();
  }

  /// Runs `fn` standalone and records it as a child of `parent`.
  template <class Fn>
  int standalone(const char* name, int parent, Fn&& fn) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.parent = parent;
    s.op = op_;
    s.standalone = true;
    s.start_ms = now_ms();
    spans_.push_back(std::move(s));
    int idx = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(idx);
    fn();
    stack_.pop_back();
    spans_[idx].end_ms = now_ms();
    double took = spans_[idx].end_ms - spans_[idx].start_ms;
    for (int open_idx : stack_) spans_[open_idx].excluded_ms += took;
    excluded_ += took;
    return idx;
  }

  /// Standalone time spent so far in the current operation.
  [[nodiscard]] double excluded_ms() const { return excluded_; }

  /// The current operation's root span (its first), or -1.
  [[nodiscard]] int op_root() const {
    return first_ < spans_.size() ? static_cast<int>(first_) : -1;
  }

  /// Self time per span name over the current operation's spans.
  [[nodiscard]] std::map<std::string, double> op_self_ms() const {
    std::map<std::string, double> self;
    for (std::size_t i = first_; i < spans_.size(); ++i) {
      self[spans_[i].name] += spans_[i].duration();
      if (spans_[i].parent >= 0) {
        self[spans_[spans_[i].parent].name] -= spans_[i].duration();
      }
    }
    return self;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"op\":" << s.op << ",\"name\":" << jstr(s.name)
          << ",\"start_ms\":" << jnum(s.start_ms)
          << ",\"end_ms\":" << jnum(s.end_ms)
          << ",\"excluded_ms\":" << jnum(s.excluded_ms)
          << ",\"parent\":" << s.parent
          << ",\"standalone\":" << (s.standalone ? "true" : "false") << "}\n";
    }
  }

 private:
  bool enabled_;
  long op_ = -1;
  std::size_t first_ = 0;
  std::vector<int> stack_;
  double excluded_ = 0.0;
  std::vector<Span> spans_;
};

class Scope {
 public:
  Scope(Tracer& t, const char* name) : t_(t), idx_(t.open(name)) {}
  ~Scope() { t_.close(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int index() const { return idx_; }

 private:
  Tracer& t_;
  int idx_;
};

// ---------------------------------------------------------------------------
// Operation records
// ---------------------------------------------------------------------------

struct OpRecord {
  std::string pass;
  long seq = 0;
  long rot = 0;         // rotation index
  std::string item;     // the unit metrics group by: "dme-12/bdd", "s3:phil-8/bdd"
  std::string net;      // the net operated on
  std::string kind;     // analysis | open | query
  std::string cls;      // cold | snapshot | cache | reach | ctl | trace
  long slot = 0;        // position within the item in one rotation
  double ms = 0.0;
  double open_ms = -1.0;   // cold: load through saturation
  double query_ms = -1.0;  // cold: the deadlock question
  bool ok = true;
  std::string why;
  std::map<std::string, double> self;
  std::map<std::string, double> ctr;
};

void emit_op(const OpRecord& r) {
  std::string s = "{\"rec\":\"op\",\"pass\":" + jstr(r.pass) +
                  ",\"seq\":" + std::to_string(r.seq) +
                  ",\"rot\":" + std::to_string(r.rot) +
                  ",\"item\":" + jstr(r.item) + ",\"net\":" + jstr(r.net) +
                  ",\"kind\":" + jstr(r.kind) + ",\"cls\":" + jstr(r.cls) +
                  ",\"slot\":" + std::to_string(r.slot) +
                  ",\"ms\":" + jnum(r.ms);
  if (r.open_ms >= 0) s += ",\"open_ms\":" + jnum(r.open_ms);
  if (r.query_ms >= 0) s += ",\"query_ms\":" + jnum(r.query_ms);
  s += std::string(",\"ok\":") + (r.ok ? "true" : "false");
  if (!r.ok) s += ",\"why\":" + jstr(r.why);
  if (!r.self.empty()) s += ",\"self\":" + jmap(r.self);
  if (!r.ctr.empty()) s += ",\"ctr\":" + jmap(r.ctr);
  emit(s + "}");
  if (!r.ok) {
    std::fprintf(stderr, "pnbench: FAILED %s %s #%ld: %s\n", r.kind.c_str(),
                 r.net.c_str(), r.seq, r.why.c_str());
  }
}

// ---------------------------------------------------------------------------
// Expected values (committed table, see expected.tsv)
// ---------------------------------------------------------------------------

struct Expected {
  std::string markings;   // exact decimal
  std::string deadlocks;  // exact decimal
  std::string source;
};

std::map<std::string, Expected> load_expected(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read expected values " + path);
  std::map<std::string, Expected> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> f;
    std::size_t at = 0;
    for (;;) {
      std::size_t tab = line.find('\t', at);
      f.push_back(line.substr(at, tab - at));
      if (tab == std::string::npos) break;
      at = tab + 1;
    }
    if (f.size() != 4) {
      throw std::runtime_error("malformed expected-values line: " + line);
    }
    out[f[0]] = Expected{f[1], f[2], f[3]};
  }
  return out;
}

// ---------------------------------------------------------------------------
// Cold analyses (encode-cold, traverse-cold)
// ---------------------------------------------------------------------------

struct NetItem {
  std::string name;    // builtin name or a generated-net label
  std::string family;  // metrics group by this: the name, or the generator
  symbolic::BackendKind backend = symbolic::BackendKind::kBdd;
  std::function<petri::Net()> load;
  Expected expected;

  [[nodiscard]] std::string label(const std::string& n) const {
    return n + "/" + symbolic::backend_name(backend);
  }
};

NetItem builtin_item(const std::string& name, symbolic::BackendKind backend,
                     const std::map<std::string, Expected>& table) {
  auto it = table.find(name);
  if (it == table.end()) {
    throw std::runtime_error("no expected values for net " + name);
  }
  std::string spec = "builtin:" + name;
  return NetItem{name, name, backend,
                 [spec] { return petri::load_net_spec(spec); }, it->second};
}

template <class Manager>
void kernel_counters(const char* prefix, const Manager& mgr,
                     std::map<std::string, double>& ctr) {
  std::string p = prefix;
  ctr[p + ".peak_nodes"] = static_cast<double>(mgr.peak_node_count());
  ctr[p + ".cache_lookups"] = static_cast<double>(mgr.cache_lookups());
  ctr[p + ".cache_hits"] = static_cast<double>(mgr.cache_hits());
  ctr[p + ".gc_runs"] = static_cast<double>(mgr.gc_runs());
  ctr[p + ".reorder_runs"] = static_cast<double>(mgr.reorder_runs());
}

template <class Partition>
void partition_counters(const Partition& part,
                        std::map<std::string, double>& ctr) {
  const symbolic::SaturationStats& st = part.saturation_stats();
  ctr["symbolic.clusters"] = static_cast<double>(part.num_clusters());
  ctr["symbolic.components"] = static_cast<double>(part.num_sat_components());
  ctr["symbolic.sat_applications"] = static_cast<double>(st.applications);
  ctr["symbolic.sat_memo_lookups"] = static_cast<double>(st.memo_lookups);
  ctr["symbolic.sat_memo_hits"] = static_cast<double>(st.memo_hits);
}

/// The covering instance improved_encoding solves (SMC columns at their
/// encoding cost plus one singleton column per place), rebuilt so the traced
/// run can time solve_covering standalone on the same input.
std::vector<smc::CoverColumn> cover_columns(const petri::Net& net,
                                            const std::vector<smc::Smc>& smcs) {
  std::vector<smc::CoverColumn> cols;
  for (const auto& s : smcs) {
    cols.push_back(smc::CoverColumn{s.places, s.encoding_cost()});
  }
  for (std::size_t p = 0; p < net.num_places(); ++p) {
    cols.push_back(smc::CoverColumn{{static_cast<int>(p)}, 1});
  }
  return cols;
}

/// The BDD context configuration the CLI, corpus rows and serve sessions
/// share: next-state variables, auto-reorder at 200000 live nodes.
symbolic::SymbolicOptions bdd_options() {
  symbolic::SymbolicOptions sopts;
  sopts.with_next_vars = true;
  sopts.auto_reorder_threshold = 200000;
  return sopts;
}

/// Encoding through the public chain, with find_smcs' Farkas step and
/// improved_encoding's covering step timed standalone when tracing.
encoding::MarkingEncoding encode(const petri::Net& net, Tracer& tr,
                                          std::map<std::string, double>& ctr) {
  std::vector<smc::Smc> smcs;
  int find_idx;
  {
    Scope s(tr, "smc.find_smcs");
    find_idx = s.index();
    smcs = smc::find_smcs(net);
  }
  tr.standalone("linalg.farkas", find_idx, [&] {
    ctr["linalg.invariants"] = static_cast<double>(
        linalg::minimal_semipositive_invariants(net.incidence()).size());
  });
  encoding::MarkingEncoding enc;
  int build_idx;
  {
    Scope s(tr, "encoding.build");
    build_idx = s.index();
    enc = encoding::improved_encoding(net, smcs);
  }
  tr.standalone("smc.cover", build_idx, [&] {
    smc::CoverResult cover = smc::solve_covering(
        static_cast<int>(net.num_places()), cover_columns(net, smcs));
    ctr["smc.cover_optimal"] = cover.optimal ? 1.0 : 0.0;
  });
  ctr["smc.smcs"] = static_cast<double>(smcs.size());
  ctr["encoding.vars"] = enc.num_vars();
  return enc;
}

/// Times of one cold analysis, measured from its start.
struct ColdTimes {
  Clock::time_point open_done;  // reached set ready
  double excluded_at_open = 0.0;
  Clock::time_point query_done;  // deadlock question answered
};

/// The backend half of a cold analysis: partition, saturation, deadlocks,
/// counters, teardown. `ctx` was built under the symbolic.context span.
template <class Context>
void traverse(std::unique_ptr<Context> ctx, const char* dd, Tracer& tr,
              OpRecord& rec, double& markings, double& deadlocks, ColdTimes& t) {
  const auto* part = [&] {
    Scope s(tr, "symbolic.partition");
    return &ctx->partition();
  }();
  {
    Scope s(tr, "symbolic.saturate");
    markings = ctx->reachability(symbolic::ImageMethod::kSaturation).num_markings;
  }
  t.open_done = Clock::now();
  t.excluded_at_open = tr.excluded_ms();
  {
    Scope s(tr, "symbolic.deadlocks");
    deadlocks = ctx->count_markings(ctx->deadlocks(ctx->reached_set()));
  }
  t.query_done = Clock::now();
  partition_counters(*part, rec.ctr);
  kernel_counters(dd, ctx->manager(), rec.ctr);
  Scope s(tr, "symbolic.teardown");
  ctx.reset();
}

void cold_analysis(const NetItem& item, Tracer& tr, OpRecord& rec) {
  const Clock::time_point t0 = Clock::now();
  Scope root(tr, "bench.analysis");
  petri::Net net;
  {
    Scope s(tr, "petri.load");
    net = item.load();
    std::string problem = net.validate();
    if (!problem.empty()) throw std::runtime_error("invalid net: " + problem);
  }
  double markings = 0.0, deadlocks = 0.0;
  ColdTimes t;
  if (item.backend == symbolic::BackendKind::kBdd) {
    encoding::MarkingEncoding enc = encode(net, tr, rec.ctr);
    std::unique_ptr<symbolic::SymbolicContext> ctx;
    {
      Scope s(tr, "symbolic.context");
      ctx = std::make_unique<symbolic::SymbolicContext>(net, enc, bdd_options());
    }
    traverse(std::move(ctx), "bdd", tr, rec, markings, deadlocks, t);
  } else {
    std::unique_ptr<symbolic::ZddContext> ctx;
    {
      Scope s(tr, "symbolic.context");
      ctx = std::make_unique<symbolic::ZddContext>(net);
    }
    traverse(std::move(ctx), "zdd", tr, rec, markings, deadlocks, t);
  }
  rec.open_ms = ms_between(t0, t.open_done) - t.excluded_at_open;
  rec.query_ms = ms_between(t.open_done, t.query_done);
  rec.ms = ms_between(t0, Clock::now()) - tr.excluded_ms();
  if (exact(markings) != item.expected.markings) {
    rec.ok = false;
    rec.why = "markings " + exact(markings) + " != expected " +
              item.expected.markings + " (" + item.expected.source + ")";
  } else if (exact(deadlocks) != item.expected.deadlocks) {
    rec.ok = false;
    rec.why = "deadlocks " + exact(deadlocks) + " != expected " +
              item.expected.deadlocks + " (" + item.expected.source + ")";
  }
}

/// Expected values of a generated net, from the explicit-state explorer.
Expected explicit_expected(const petri::Net& net) {
  petri::ExplicitOptions eo;
  eo.max_markings = kExplicitCap;
  petri::ExplicitResult r = petri::explicit_reachability(net, eo);
  if (!r.complete || !r.safe) {
    throw std::runtime_error("explicit oracle did not finish on a generated net");
  }
  return Expected{std::to_string(r.num_markings),
                  std::to_string(r.deadlocks.size()),
                  "explicit-state (petri::explicit_reachability)"};
}

// ---------------------------------------------------------------------------
// serve-warm
// ---------------------------------------------------------------------------

struct ServeNet {
  std::string name;
  symbolic::BackendKind backend;
  Expected expected;

  [[nodiscard]] std::string spec() const { return "builtin:" + name; }
  [[nodiscard]] std::string open_line() const {
    return "open " + spec() + " " + symbolic::backend_name(backend);
  }
};

struct Session {
  int net = 0;
  bool expect_cache = false;
  std::vector<std::string> queries;   // query lines, without "query "
  std::vector<std::string> expected;  // server response per query line
};

/// Length of the repeating block of `name(0..n)` (a cell of a builtin
/// generator: places and transitions are laid out cell by cell, named
/// <role>_<cell>), or n when nothing repeats.
template <class Name>
std::size_t cell_period(std::size_t n, Name name) {
  auto role = [&](std::size_t i) {
    const std::string& s = name(static_cast<int>(i));
    return s.substr(0, s.rfind('_'));
  };
  for (std::size_t j = 1; j < n; ++j) {
    if (role(j) == role(0) && n % j == 0) return j;
  }
  return n;
}

/// A query mix for one session: every kind, six of the twenty traced, about
/// the places and transitions of cell `start` onwards. The seed orders the
/// lines and does not choose them: which cell a question names changes its
/// cost severalfold (through the variable order), which would make a
/// session's cost depend on the seed.
std::vector<std::string> make_queries(const petri::Net& net, std::size_t start,
                                      Rng& rng) {
  const std::size_t np = net.num_places(), nt = net.num_transitions();
  const std::size_t pcell = cell_period(np, [&](int i) -> const std::string& {
    return net.place_name(i);
  });
  const std::size_t tcell = cell_period(nt, [&](int i) -> const std::string& {
    return net.transition_name(i);
  });
  const std::size_t cell = start % (np / pcell);
  auto p = [&](std::size_t i) {
    return net.place_name(static_cast<int>((i + cell * pcell) % np));
  };
  auto t = [&](std::size_t i) {
    return net.transition_name(static_cast<int>((i + cell * tcell) % nt));
  };
  const std::size_t h = np / 2;
  std::vector<std::string> lines = {
      "reach " + p(1),
      "reach !" + p(2),
      "reach " + p(0) + " & " + p(h),
      "reach " + p(3) + " | " + p(np - 1),
      "ex " + p(2),
      "ef " + p(np - 1),
      "ef " + p(1) + " & " + p(4),
      "ag !" + p(3),
      "ag !(" + p(2) + " & " + p(np - 2) + ")",
      "eg !" + p(1),
      "af " + p(0),
      "deadlock",
      "live " + t(0),
      "live " + t(nt - 1),
      "trace reach " + p(1) + " & " + p(h + 1),
      "trace ef " + p(h),
      "trace ag !" + p(4),
      "trace eg !" + p(h),
      "trace deadlock",
      "trace live " + t(nt / 2),
  };
  for (std::size_t i = lines.size() - 1; i > 0; --i) {
    std::swap(lines[i], lines[rng.below(i + 1)]);
  }
  return lines;
}

std::string query_class(const std::string& line) {
  if (line.rfind("trace ", 0) == 0) return "trace";
  if (line.rfind("reach ", 0) == 0 || line.rfind("deadlock", 0) == 0 ||
      line.rfind("live ", 0) == 0) {
    return "reach";
  }
  return "ctl";
}

/// Answers every line with the backend the session does NOT use, rendered
/// exactly as the server renders a one-line query: the cross-backend
/// agreement the query answers are checked against.
template <class Backend>
std::vector<std::string> answer_with(typename Backend::Context& ctx,
                                     const std::vector<std::string>& lines) {
  std::vector<query::Query> qs;
  for (const std::string& l : lines) {
    std::vector<query::Query> one = query::parse_queries(l);
    if (one.size() != 1) throw std::runtime_error("bad query line: " + l);
    qs.push_back(one[0]);
  }
  query::BasicQueryEngine<Backend> engine(ctx);
  std::vector<query::QueryResult> answers = engine.run(qs);
  std::vector<std::string> out;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    std::ostringstream text;
    query::print_results(text, ctx.net(), {qs[i]}, {answers[i]});
    out.push_back(text.str());
  }
  return out;
}

std::vector<std::string> cross_backend_answers(const ServeNet& sn,
                                               const std::vector<std::string>& lines) {
  petri::Net net = petri::load_net_spec(sn.spec());
  if (sn.backend == symbolic::BackendKind::kBdd) {
    symbolic::ZddContext ctx(net);
    return answer_with<symbolic::ZddBackend>(ctx, lines);
  }
  encoding::MarkingEncoding enc = encoding::build_encoding(net, "improved");
  symbolic::SymbolicContext ctx(net, enc, bdd_options());
  return answer_with<symbolic::BddBackend>(ctx, lines);
}

/// Builds the context a session of `sn` uses, loads its snapshot into it and
/// hands it to `fn`.
template <class Fn>
void with_loaded_context(const ServeNet& sn, const petri::Net& net,
                         const std::string& path, Fn&& fn) {
  if (sn.backend == symbolic::BackendKind::kBdd) {
    encoding::MarkingEncoding enc = encoding::build_encoding(net, "improved");
    symbolic::SymbolicContext ctx(net, enc, bdd_options());
    snapshot::load_snapshot(path, ctx);
    fn(ctx);
  } else {
    symbolic::ZddContext ctx(net);
    snapshot::load_snapshot(path, ctx);
    fn(ctx);
  }
}

std::string snapshot_file(const std::string& dir, const ServeNet& sn) {
  petri::Net net = petri::load_net_spec(sn.spec());
  char hex[20];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(petri::structural_hash(net)));
  bool bdd = sn.backend == symbolic::BackendKind::kBdd;
  return dir + "/" + hex + "-" + symbolic::backend_name(sn.backend) +
         (bdd ? "-improved" : "") + ".pnss";
}

/// Parses the counters of the current session from a `stats` response.
std::map<std::string, double> current_session_counters(const std::string& stats) {
  std::map<std::string, double> out;
  std::istringstream in(stats);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find(" current ") == std::string::npos) continue;
    auto field = [&](const std::string& key) -> std::string {
      std::size_t at = line.find(" " + key + "=");
      if (at == std::string::npos) return "";
      at += key.size() + 2;
      return line.substr(at, line.find(' ', at) - at);
    };
    out["peak"] = std::stod(field("peak"));
    std::string cache = field("cache");
    out["hits"] = std::stod(cache.substr(0, cache.find('/')));
    out["lookups"] = std::stod(cache.substr(cache.find('/') + 1));
    out["gc"] = std::stod(field("gc"));
    out["reorder"] = std::stod(field("reorder"));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string expected;
  std::string workdir;
  std::string spans;
  std::string transcript;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs from the seed and their expected answers. Runs once
  /// and is not part of set-up time: the oracle is not the system.
  virtual void prepare() = 0;
  /// Brings the system to the state the measured loop starts from. Timed;
  /// run several times per process.
  virtual void setup() = 0;
  /// Runs one rotation of operations.
  virtual void rotation(const std::string& pass, long rot, Tracer& tr,
                        long& seq) = 0;
  [[nodiscard]] virtual std::size_t ops_per_rotation() const = 0;
};

class ColdWorkload : public Workload {
 public:
  ColdWorkload(const Args& a, const std::map<std::string, Expected>& table)
      : args_(a), table_(table) {}

  void prepare() override {
    using symbolic::BackendKind;
    auto add = [&](const std::string& name, BackendKind b) {
      items_.push_back(builtin_item(name, b, table_));
    };
    if (args_.workload == "encode-cold") {
      for (const char* n : args_.tiny
                               ? std::vector<const char*>{"dme-4", "dmecir-2",
                                                          "muller-4", "farm-2-4"}
                               : std::vector<const char*>{"dme-12", "dmecir-5",
                                                          "muller-14",
                                                          "farm-16-32"}) {
        add(n, BackendKind::kBdd);
      }
      // The seeded draw: generated nets whose expected values come from the
      // explicit-state explorer, so a claim can be re-checked on a new seed.
      // They form one family in the metrics, so the family's time per
      // rotation sums several draws and does not swing with one of them.
      Rng rng{args_.seed};
      const int machines = args_.tiny ? 3 : kRspMachines;
      const int places = args_.tiny ? 3 : kRspPlaces;
      const std::string family =
          "rsp-" + std::to_string(machines) + "x" + std::to_string(places);
      for (int i = 0; i < kRspDraws; ++i) {
        unsigned gseed = static_cast<unsigned>(rng.next() & 0x7fffffffU);
        auto load = [=] {
          return petri::gen::random_sm_product(machines, places, kRspSync, gseed);
        };
        items_.push_back(NetItem{family + "-s" + std::to_string(gseed), family,
                                 BackendKind::kBdd, load,
                                 explicit_expected(load())});
      }
    } else {
      if (args_.tiny) {
        add("phil-4", BackendKind::kBdd);
        add("slot-4", BackendKind::kBdd);
        add("slot-3", BackendKind::kZdd);
        add("farm-2-8", BackendKind::kZdd);
      } else {
        add("phil-12", BackendKind::kBdd);
        add("slot-10", BackendKind::kBdd);
        add("slot-8", BackendKind::kZdd);
        add("farm-8-32", BackendKind::kZdd);
      }
      // The seed picks where the rotation starts.
      std::rotate(items_.begin(),
                  items_.begin() + static_cast<long>(args_.seed % items_.size()),
                  items_.end());
    }
  }

  /// A cold workload keeps nothing between operations, so its set-up is
  /// generating the inputs.
  void setup() override {
    for (const NetItem& it : items_) {
      std::string problem = it.load().validate();
      if (!problem.empty()) throw std::runtime_error(it.name + ": " + problem);
    }
  }

  void rotation(const std::string& pass, long rot, Tracer& tr,
                long& seq) override {
    std::map<std::string, long> slots;
    for (const NetItem& it : items_) {
      OpRecord rec;
      rec.pass = pass;
      rec.seq = seq++;
      rec.rot = rot;
      rec.item = it.label(it.family);
      rec.net = it.label(it.name);
      rec.slot = slots[it.family]++;
      rec.kind = "analysis";
      rec.cls = "cold";
      tr.begin_op(rec.seq);
      const Clock::time_point t0 = Clock::now();
      try {
        cold_analysis(it, tr, rec);
      } catch (const std::exception& e) {
        rec.ok = false;
        rec.why = std::string("exception: ") + e.what();
        rec.ms = ms_between(t0, Clock::now()) - tr.excluded_ms();
      }
      if (tr.enabled()) rec.self = tr.op_self_ms();
      emit_op(rec);
    }
  }

  [[nodiscard]] std::size_t ops_per_rotation() const override {
    return items_.size();
  }

 private:
  const Args& args_;
  const std::map<std::string, Expected>& table_;
  std::vector<NetItem> items_;
};

class ServeWorkload : public Workload {
 public:
  ServeWorkload(const Args& a, const std::map<std::string, Expected>& table)
      : args_(a), table_(table) {}

  ~ServeWorkload() override { flush_transcript(); }

  void prepare() override {
    using symbolic::BackendKind;
    auto add = [&](const std::string& name, BackendKind b) {
      auto it = table_.find(name);
      if (it == table_.end()) throw std::runtime_error("no expected values for " + name);
      nets_.push_back(ServeNet{name, b, it->second});
    };
    if (args_.tiny) {
      add("phil-4", BackendKind::kBdd);
      add("dme-4", BackendKind::kBdd);
      add("muller-4", BackendKind::kBdd);
      add("dme-5", BackendKind::kZdd);
    } else {
      add("phil-8", BackendKind::kBdd);
      add("dme-8", BackendKind::kBdd);
      add("muller-14", BackendKind::kBdd);
      add("dme-12", BackendKind::kZdd);
    }
    // Rotation over a cache of two sessions: net 0 is the hot net, re-opened
    // from the cache between two snapshot loads; every other open, and net 0
    // again in the next rotation, is evicted by then and loads its snapshot.
    const std::vector<std::pair<int, bool>> plan = {
        {0, false}, {1, false}, {0, true}, {2, false}, {3, false}};
    Rng rng{args_.seed};
    std::vector<petri::Net> loaded;
    for (const ServeNet& sn : nets_) loaded.push_back(petri::load_net_spec(sn.spec()));
    for (auto [net, cached] : plan) {
      Session s;
      s.net = net;
      s.expect_cache = cached;
      s.queries = make_queries(loaded[net], sessions_.size(), rng);
      sessions_.push_back(std::move(s));
    }
    for (std::size_t n = 0; n < nets_.size(); ++n) {
      std::vector<std::string> lines;
      for (const Session& s : sessions_) {
        if (s.net == static_cast<int>(n)) {
          lines.insert(lines.end(), s.queries.begin(), s.queries.end());
        }
      }
      std::vector<std::string> answers = cross_backend_answers(nets_[n], lines);
      std::size_t k = 0;
      for (Session& s : sessions_) {
        if (s.net != static_cast<int>(n)) continue;
        s.expected.assign(answers.begin() + static_cast<long>(k),
                          answers.begin() + static_cast<long>(k + s.queries.size()));
        k += s.queries.size();
      }
    }
  }

  void setup() override {
    // Populate a fresh snapshot directory the way a deployment warms up: one
    // cold open per net through a server that writes snapshots back.
    snap_dir_ = args_.workdir + "/snapshots-" + std::to_string(setups_++);
    fs::remove_all(snap_dir_);
    fs::create_directories(snap_dir_);
    std::istringstream no_input;
    std::ostringstream out;
    server::AnalysisServer srv(no_input, out, server_options());
    for (const ServeNet& sn : nets_) {
      srv.handle_line(sn.open_line());
      std::string resp = out.str();
      out.str("");
      // Counts are checked on every measured open; here only that the
      // snapshot was written.
      if (resp.find("source=traversal") == std::string::npos) {
        throw std::runtime_error("set-up open of " + sn.name + " failed: " + resp);
      }
    }
  }

  /// Traced runs also time save_snapshot standalone on each net's reached
  /// set (set-up writes the snapshots inside handle_line).
  void time_snapshot_save() {
    double total = 0.0;
    const std::string copy = args_.workdir + "/save-probe.pnss";
    for (const ServeNet& sn : nets_) {
      petri::Net net = petri::load_net_spec(sn.spec());
      with_loaded_context(sn, net, snapshot_file(snap_dir_, sn), [&](auto& ctx) {
        const Clock::time_point t0 = Clock::now();
        snapshot::save_snapshot(copy, ctx);
        total += ms_between(t0, Clock::now());
      });
      fs::remove(copy);
    }
    emit("{\"rec\":\"setup_trace\",\"snapshot.save_ms\":" + jnum(total) + "}");
  }

  void rotation(const std::string& pass, long rot, Tracer& tr,
                long& seq) override {
    if (!srv_) {
      srv_ = std::make_unique<server::AnalysisServer>(no_input_, out_,
                                                      server_options());
    }
    for (std::size_t k = 0; k < sessions_.size(); ++k) {
      const Session& s = sessions_[k];
      const ServeNet& sn = nets_[s.net];
      OpRecord base;
      base.pass = pass;
      base.rot = rot;
      base.net = sn.name + "/" + symbolic::backend_name(sn.backend);
      base.item = "s" + std::to_string(k) + ":" + base.net;
      open_request(s, sn, base, tr, seq);
      for (std::size_t q = 0; q < s.queries.size(); ++q) {
        OpRecord rec = base;
        rec.seq = seq++;
        rec.kind = "query";
        rec.cls = query_class(s.queries[q]);
        rec.slot = static_cast<long>(q);
        std::string resp = request(rec, "query " + s.queries[q],
                                   ("query." + rec.cls).c_str(), tr);
        if (rec.ok && resp != s.expected[q]) {
          rec.ok = false;
          rec.why = "answer differs from the cross-backend answer: got '" + resp +
                    "' expected '" + s.expected[q] + "'";
        }
        if (tr.enabled()) rec.self = tr.op_self_ms();
        emit_op(rec);
      }
      if (tr.enabled()) session_counters(s, sn);
    }
  }

  [[nodiscard]] std::size_t ops_per_rotation() const override {
    std::size_t n = 0;
    for (const Session& s : sessions_) n += 1 + s.queries.size();
    return n;
  }

 private:
  server::ServerOptions server_options() const {
    server::ServerOptions o;
    o.snapshot_dir = snap_dir_;
    o.cache_capacity = 2;
    o.jobs = 1;
    return o;
  }

  /// Sends one line, times it under a root span, returns the response.
  std::string request(OpRecord& rec, const std::string& line,
                      const char* span, Tracer& tr) {
    tr.begin_op(rec.seq);
    out_.str("");
    const Clock::time_point t0 = Clock::now();
    int root = tr.open(span);
    srv_->handle_line(line);
    tr.close(root);
    rec.ms = ms_between(t0, Clock::now());
    std::string resp = out_.str();
    if (!args_.transcript.empty()) transcript_ += line + "\n" + resp;
    if (resp.rfind("error:", 0) == 0 || resp.find("\nerror:") != std::string::npos) {
      rec.ok = false;
      rec.why = "server error: " + resp;
    }
    return resp;
  }

  void open_request(const Session& s, const ServeNet& sn, const OpRecord& base,
                    Tracer& tr, long& seq) {
    OpRecord rec = base;
    rec.seq = seq++;
    rec.kind = "open";
    rec.cls = s.expect_cache ? "cache" : "snapshot";
    std::string resp = request(rec, sn.open_line(), "server.open", tr);
    const std::string want_source = "source=" + rec.cls;
    const std::string want_count =
        " markings=" + fmt6g(std::stod(sn.expected.markings)) + " ";
    if (rec.ok && (resp.rfind("ok open ", 0) != 0 ||
                   resp.find(want_source) == std::string::npos ||
                   resp.find(want_count) == std::string::npos)) {
      rec.ok = false;
      rec.why = "open response '" + resp + "' lacks '" + want_source + "' or '" +
                want_count + "' (" + sn.expected.source + ")";
    }
    if (tr.enabled() && rec.ok) trace_open(rec, sn, tr);
    if (tr.enabled()) rec.self = tr.op_self_ms();
    emit_op(rec);
  }

  /// The open span's inner calls, each timed standalone on the same input
  /// and recorded as children of the open span (index 0 of this op).
  void trace_open(OpRecord& rec, const ServeNet& sn, Tracer& tr) {
    const int open_idx = tr.op_root();
    petri::Net net;
    tr.standalone("petri.load", open_idx, [&] {
      net = petri::load_net_spec(sn.spec());
      (void)net.validate();
    });
    if (rec.cls == "cache") return;
    std::string path = snapshot_file(snap_dir_, sn);
    rec.ctr["snapshot.bytes"] = static_cast<double>(fs::file_size(path));
    if (sn.backend == symbolic::BackendKind::kBdd) {
      std::vector<smc::Smc> smcs;
      int find_idx = tr.standalone("smc.find_smcs", open_idx, [&] {
        smcs = smc::find_smcs(net);
      });
      tr.standalone("linalg.farkas", find_idx, [&] {
        rec.ctr["linalg.invariants"] = static_cast<double>(
            linalg::minimal_semipositive_invariants(net.incidence()).size());
      });
      encoding::MarkingEncoding enc;
      int build_idx = tr.standalone("encoding.build", open_idx, [&] {
        enc = encoding::improved_encoding(net, smcs);
      });
      tr.standalone("smc.cover", build_idx, [&] {
        smc::CoverResult cover = smc::solve_covering(
            static_cast<int>(net.num_places()), cover_columns(net, smcs));
        rec.ctr["smc.cover_optimal"] = cover.optimal ? 1.0 : 0.0;
      });
      rec.ctr["smc.smcs"] = static_cast<double>(smcs.size());
      rec.ctr["encoding.vars"] = enc.num_vars();
      std::unique_ptr<symbolic::SymbolicContext> ctx;
      tr.standalone("symbolic.context", open_idx, [&] {
        ctx = std::make_unique<symbolic::SymbolicContext>(net, enc, bdd_options());
      });
      tr.standalone("snapshot.load", open_idx,
                    [&] { snapshot::load_snapshot(path, *ctx); });
    } else {
      std::unique_ptr<symbolic::ZddContext> ctx;
      tr.standalone("symbolic.context", open_idx, [&] {
        ctx = std::make_unique<symbolic::ZddContext>(net);
      });
      tr.standalone("snapshot.load", open_idx,
                    [&] { snapshot::load_snapshot(path, *ctx); });
    }
  }

  /// Kernel counters of session `s`. An open that is not a cache hit builds
  /// a new manager, whose counters start from zero; a cache hit continues the
  /// manager of the net's previous session, so it reports the deltas.
  void session_counters(const Session& s, const ServeNet& sn) {
    out_.str("");
    srv_->handle_line("stats");
    std::map<std::string, double> now = current_session_counters(out_.str());
    out_.str("");
    const std::string key = sn.name + "/" + symbolic::backend_name(sn.backend);
    const char* prefix = sn.backend == symbolic::BackendKind::kBdd ? "bdd" : "zdd";
    std::map<std::string, double>& last = last_counters_[key];
    if (!s.expect_cache) last.clear();
    std::map<std::string, double> delta;
    for (const char* k : {"lookups", "hits", "gc", "reorder"}) {
      delta[k] = now[k] - last[k];
    }
    std::string p = prefix;
    emit("{\"rec\":\"counters\",\"ctr\":" +
         jmap({{p + ".peak_nodes", now["peak"]},
               {p + ".cache_lookups", delta["lookups"]},
               {p + ".cache_hits", delta["hits"]},
               {p + ".gc_runs", delta["gc"]},
               {p + ".reorder_runs", delta["reorder"]}}) +
         "}");
    last = now;
  }

  void flush_transcript() {
    if (args_.transcript.empty()) return;
    std::ofstream out(args_.transcript);
    out << transcript_;
  }

  const Args& args_;
  const std::map<std::string, Expected>& table_;
  std::vector<ServeNet> nets_;
  std::vector<Session> sessions_;
  std::string snap_dir_;
  int setups_ = 0;
  std::istringstream no_input_;
  std::ostringstream out_;
  std::unique_ptr<server::AnalysisServer> srv_;
  std::map<std::string, std::map<std::string, double>> last_counters_;
  std::string transcript_;
};

}  // namespace

namespace {

struct Pass {
  const char* name;
  Tracer* tracer;
};

/// Runs whole rounds until `seconds` have passed (at least one); a round is
/// one rotation of each pass, in order.
void run_loop(Workload& w, double seconds, const std::vector<Pass>& passes) {
  const Clock::time_point t0 = Clock::now();
  long seq = 0;
  for (long rot = 0; rot == 0 || ms_between(t0, Clock::now()) < seconds * 1e3;
       ++rot) {
    for (const Pass& p : passes) {
      emit("{\"rec\":\"rotation\",\"pass\":" + jstr(p.name) +
           ",\"ops\":" + std::to_string(w.ops_per_rotation()) + "}");
      w.rotation(p.name, rot, *p.tracer, seq);
    }
  }
}

/// Restarts the kernel's peak-resident-set count (VmHWM) from the current
/// resident set, so the peak reported at exit leaves out the expected-answer
/// oracle prepare() ran. Returns false where the kernel does not offer it.
bool reset_peak_rss() {
#if defined(__GLIBC__)
  malloc_trim(0);  // hand the oracle's freed pages back first
#endif
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

/// Peak resident set in MB: VmHWM, or ru_maxrss where /proc lacks it.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int explicit_mode(const std::string& spec) {
  petri::Net net = petri::load_net_spec(spec);
  petri::ExplicitOptions eo;
  eo.max_markings = kExplicitCap;
  petri::ExplicitResult r = petri::explicit_reachability(net, eo);
  std::printf("{\"spec\":%s,\"complete\":%s,\"safe\":%s,\"markings\":%zu,"
              "\"deadlocks\":%zu}\n",
              jstr(spec).c_str(), r.complete ? "true" : "false",
              r.safe ? "true" : "false", r.num_markings, r.deadlocks.size());
  return r.complete ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: pnbench --workload encode-cold|traverse-cold|serve-warm "
               "--seed N --seconds S --trace 0|1 --expected FILE --workdir DIR "
               "[--tiny] [--spans FILE] [--transcript FILE]\n"
               "       pnbench --explicit SPEC\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  std::string explicit_spec;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
      return argv[++i];
    };
    try {
      if (k == "--workload") a.workload = val();
      else if (k == "--seed") a.seed = std::stoull(val());
      else if (k == "--seconds") a.seconds = std::stod(val());
      else if (k == "--trace") a.trace = val() == "1";
      else if (k == "--tiny") a.tiny = true;
      else if (k == "--expected") a.expected = val();
      else if (k == "--workdir") a.workdir = val();
      else if (k == "--spans") a.spans = val();
      else if (k == "--transcript") a.transcript = val();
      else if (k == "--explicit") explicit_spec = val();
      else return usage();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pnbench: %s\n", e.what());
      return usage();
    }
  }
  if (!explicit_spec.empty()) return explicit_mode(explicit_spec);
  if (a.expected.empty() || a.workdir.empty()) return usage();

  try {
    emit(std::string("{\"rec\":\"env\",\"compiler\":") + jstr(PNBENCH_COMPILER) +
         ",\"build_type\":" + jstr(PNBENCH_BUILD_TYPE) +
#ifdef NDEBUG
         ",\"asserts\":false}");
#else
         ",\"asserts\":true}");
#endif
    std::map<std::string, Expected> table = load_expected(a.expected);
    fs::create_directories(a.workdir);
    std::unique_ptr<Workload> w;
    if (a.workload == "encode-cold" || a.workload == "traverse-cold") {
      w = std::make_unique<ColdWorkload>(a, table);
    } else if (a.workload == "serve-warm") {
      w = std::make_unique<ServeWorkload>(a, table);
    } else {
      std::fprintf(stderr, "pnbench: unknown workload '%s'\n", a.workload.c_str());
      return usage();
    }

    w->prepare();
    const bool rss_reset = reset_peak_rss();
    // Set-up is timed several times and reported per repetition; the last
    // one's state is what the measured loop starts from.
    double setup_total_s = 0.0;
    for (int i = 0; i < kMinSetups || (setup_total_s < kSetupSeconds && i < 1000);
         ++i) {
      const Clock::time_point t0 = Clock::now();
      w->setup();
      const double took = ms_between(t0, Clock::now()) / 1e3;
      setup_total_s += took;
      emit("{\"rec\":\"setup\",\"s\":" + jnum(took) + "}");
    }

    Tracer off(false);
    if (!a.trace) {
      run_loop(*w, a.seconds, {{"plain", &off}});
    } else {
      // Each rotation twice, untraced then traced, so the two passes see the
      // same host conditions: their difference is the tracing overhead, and
      // self times can be held against the untraced time.
      Tracer on(true);
      if (auto* serve = dynamic_cast<ServeWorkload*>(w.get())) serve->time_snapshot_save();
      run_loop(*w, a.seconds, {{"plain", &off}, {"traced", &on}});
      if (!a.spans.empty()) on.write(a.spans);
    }
    emit("{\"rec\":\"done\",\"rss_mb\":" + jnum(peak_rss_mb()) +
         ",\"rss_reset\":" + (rss_reset ? "true" : "false") + "}");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pnbench: fatal: %s\n", e.what());
    return 1;
  }
  return 0;
}
