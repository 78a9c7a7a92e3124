// perfbench_harness: the compiled half of the benchmark. perfbench/run.py
// drives it; each subcommand prints one JSON line (or a DTD) on stdout
// and exits non-zero with a message on stderr when anything fails.
//
//   perfbench_harness info
//   perfbench_harness gen WORKLOAD SEED DIR
//   perfbench_harness engine DIR JOBS OUT_DTD
//   perfbench_harness trace-pass DIR OUT_DTD
//   perfbench_harness serve-prefill SEED SOCKET
//   perfbench_harness serve-load SEED SOCKET SECONDS
//   perfbench_harness serve-shutdown SOCKET
//   perfbench_harness serve-trace SEED SECONDS DATA_DIR
//
// gen writes the workload's batch corpus as DIR/NNNNN.xml (for
// serve_mixed: its prefill documents). The serve-* subcommands run the
// serve_mixed scenario, regenerating its documents from SEED.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "harness.h"
#include "inputs.h"

namespace perfbench {
namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench_harness: %s\n", message.c_str());
  return 1;
}

bool WriteText(const std::string& path, const std::string& text) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  size_t written = std::fwrite(text.data(), 1, text.size(), file);
  return std::fclose(file) == 0 && written == text.size();
}

int Run(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return Fail("missing subcommand");
  const std::string& command = args[0];
  auto seed = [&](size_t i) { return std::strtoull(args[i].c_str(), nullptr, 10); };
  std::string error;

  if (command == "info" && args.size() == 1) {
    JsonLine out;
    out.Str("build_type", PERFBENCH_BUILD_TYPE);
    out.Num("nproc", std::thread::hardware_concurrency());
    out.Print();
    return 0;
  }
  if (command == "gen" && args.size() == 4) {
    std::vector<std::string> documents = WorkloadDocuments(args[1], seed(2));
    if (documents.empty()) return Fail("unknown workload " + args[1]);
    size_t count = documents.size();
    if (args[1] == "serve_mixed") count = static_cast<size_t>(kServePrefill);
    if (!WriteDocuments(args[3], documents, count)) {
      return Fail("cannot write documents under " + args[3]);
    }
    double bytes = 0;
    for (size_t i = 0; i < count; ++i) {
      bytes += static_cast<double>(documents[i % documents.size()].size());
    }
    JsonLine out;
    out.Num("files", static_cast<double>(count));
    out.Num("bytes", bytes);
    out.Print();
    return 0;
  }
  if (command == "engine" && args.size() == 4) {
    JsonLine out;
    std::string dtd;
    int jobs = std::atoi(args[2].c_str());
    if (jobs < 1 || !EngineRun(ListXmlFiles(args[1]), jobs, &out, &dtd,
                               &error)) {
      return Fail(error.empty() ? "JOBS must be >= 1" : error);
    }
    if (!WriteText(args[3], dtd)) return Fail("cannot write " + args[3]);
    out.Print();
    return 0;
  }
  if (command == "trace-pass" && args.size() == 3) {
    JsonLine out;
    std::string dtd;
    if (!TracedPass(ListXmlFiles(args[1]), &out, &dtd, &error)) {
      return Fail(error);
    }
    if (!WriteText(args[2], dtd)) return Fail("cannot write " + args[2]);
    out.Print();
    return 0;
  }
  if (command == "serve-prefill" && args.size() == 3) {
    ServeScenario scenario = ServeMixedScenario(seed(1), 0);
    return ServePrefill(args[2], scenario, &error) ? 0 : Fail(error);
  }
  if (command == "serve-load" && args.size() == 4) {
    ServeScenario scenario =
        ServeMixedScenario(seed(1), std::atof(args[3].c_str()));
    JsonLine out;
    if (!ServeLoad(args[2], scenario, &out, &error)) return Fail(error);
    out.Print();
    return 0;
  }
  if (command == "serve-shutdown" && args.size() == 2) {
    return ServeShutdown(args[1], &error) ? 0 : Fail(error);
  }
  if (command == "serve-trace" && args.size() == 4) {
    ServeScenario scenario =
        ServeMixedScenario(seed(1), std::atof(args[2].c_str()));
    JsonLine out;
    if (!ServeTrace(scenario, args[3], &out, &error)) return Fail(error);
    out.Print();
    return 0;
  }
  return Fail("bad arguments; see the usage at the top of harness.cc");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "perfbench_harness: assertions are enabled; the benchmark "
               "measures Release builds only\n");
  return 3;
#endif
  return perfbench::Run(argc, argv);
}
