/// perfbench_loadgen: the serving benchmark's single-process load
/// generator. It drives the library only through public entry points and
/// prints one JSON report line on stdout: the run's context, the
/// correctness verdict, request accounting, and its metrics.
///
///   perfbench_loadgen --workload serve_churn --seed 1 --seconds 12 --trace 0
///
/// Optional: --items/--keywords/--nodes (corpus scale, default the harness
/// corpus: 60000/89000/1000) and --spans-out PATH (traced runs write their
/// spans there, one JSON object per line).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using perfbench::MetricSink;
using perfbench::RunParams;
using perfbench::RunResult;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const MetricSink& sink) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : sink.all()) {
    if (!first) out += ", ";
    first = false;
    out += json_string(name) + ": {\"value\": " + json_number(value.first) +
           ", \"unit\": " + json_string(value.second) + "}";
  }
  return out + "}";
}

bool parse_size(const char* text, std::size_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  out = static_cast<std::size_t>(v);
  return true;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_loadgen: %s\n"
               "usage: perfbench_loadgen --workload NAME --seed N --seconds S "
               "--trace 0|1 [--items N] [--keywords N] [--nodes N] "
               "[--spans-out PATH]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunParams params;
  std::string argv_joined;
  std::size_t seed = 1;
  std::size_t trace = 0;
  std::string spans_out;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return usage("flag without a value");
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag != "--spans-out") {  // an output path, not part of the inputs
      argv_joined += (argv_joined.empty() ? "" : " ") + flag + " " + value;
    }
    bool ok = true;
    if (flag == "--workload") {
      params.workload = value;
    } else if (flag == "--seed") {
      ok = parse_size(value, seed);
    } else if (flag == "--seconds") {
      params.seconds = std::strtod(value, nullptr);
      ok = params.seconds > 0.0;
    } else if (flag == "--trace") {
      ok = parse_size(value, trace) && trace <= 1;
    } else if (flag == "--spans-out") {
      spans_out = value;
    } else if (flag == "--items") {
      ok = parse_size(value, params.corpus.items) && params.corpus.items >= 200;
    } else if (flag == "--keywords") {
      ok = parse_size(value, params.corpus.keywords);
    } else if (flag == "--nodes") {
      ok = parse_size(value, params.corpus.nodes) && params.corpus.nodes >= 16;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
    if (!ok) return usage(("bad value for " + flag).c_str());
  }
  params.seed = seed;
  params.trace = trace == 1;

  RunResult result;
  if (params.workload == "serve_churn" || params.workload == "query_mix") {
    result = perfbench::run_serve_workload(params);
  } else if (params.workload == "paper_batch") {
    result = perfbench::run_paper_batch(params);
  } else {
    return usage(("unknown workload '" + params.workload + "'").c_str());
  }

  if (!spans_out.empty()) {
    std::FILE* f = std::fopen(spans_out.c_str(), "w");
    if (f == nullptr) return usage(("cannot write " + spans_out).c_str());
    for (const perfbench::Span& s : result.spans) {
      std::fprintf(f, "{\"parent\": %u, \"start_s\": %.9f, \"end_s\": %.9f}\n",
                   s.parent, s.start_s, s.end_s);
    }
    std::fclose(f);
  }

  std::string problems = "[";
  for (std::size_t i = 0; i < result.problems.size() && i < 20; ++i) {
    problems += (i > 0 ? ", " : "") + json_string(result.problems[i]);
  }
  problems += "]";
  std::string notes = "{";
  for (auto it = result.notes.begin(); it != result.notes.end(); ++it) {
    notes += (it == result.notes.begin() ? "" : ", ") + json_string(it->first) +
             ": " + json_number(it->second);
  }
  notes += "}";

  std::printf(
      "{\"context\": {\"build_type\": %s, \"argv\": %s, \"nproc\": %u, "
      "\"workers\": %zu, \"setups\": %zu, \"seed\": %llu, \"workload\": %s, "
      "\"seconds\": %s, \"trace\": %d, \"corpus\": {\"items\": %zu, "
      "\"keywords\": %zu, \"nodes\": %zu, \"fingerprint\": \"%s\"}}, "
      "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"digest\": %s, \"problems\": %s, \"notes\": %s, "
      "\"end_to_end\": %s, \"per_layer\": %s}\n",
      json_string(PERFBENCH_BUILD_TYPE).c_str(), json_string(argv_joined).c_str(),
      std::thread::hardware_concurrency(), perfbench::kWorkers, perfbench::kSetups,
      static_cast<unsigned long long>(params.seed),
      json_string(params.workload).c_str(), json_number(params.seconds).c_str(),
      params.trace ? 1 : 0, params.corpus.items, params.corpus.keywords,
      params.corpus.nodes, perfbench::hex64(result.corpus_fingerprint).c_str(),
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed),
      json_string(result.digest).c_str(), problems.c_str(), notes.c_str(),
      json_metrics(result.end_to_end).c_str(),
      json_metrics(result.per_layer).c_str());
  return 0;
}
