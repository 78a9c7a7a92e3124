#include "inputs.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "bench_util.h"
#include "common.h"
#include "gen/corpus.h"

namespace perfbench {

// The record shape and filler text of bench_util.h's
// SyntheticCorpusDocuments, whose generator has a fixed seed: here the
// workload seed drives the draws, and documents are ~75 KiB. Keep the
// two in step until that function takes a seed.
std::vector<std::string> TextCorpus(uint64_t seed) {
  constexpr int64_t kTargetBytes = int64_t{256} << 20;
  constexpr size_t kDocBytes = 75 * 1024;
  Rng rng(seed);
  std::vector<std::string> documents;
  int64_t total = 0;
  int64_t record = 0;
  while (total < kTargetBytes) {
    std::string xml;
    xml.reserve(kDocBytes + 1024);
    xml += "<dataset>";
    while (xml.size() < kDocBytes) {
      int64_t id = record++;
      xml += "<record id=\"r" + std::to_string(id) + "\"><title>record " +
             std::to_string(id) +
             ", a title long enough to look like a real bibliographic "
             "entry</title>";
      int authors = 1 + static_cast<int>(rng.Below(3));
      for (int a = 0; a < authors; ++a) {
        xml += "<author>contributor " + std::to_string(rng.Below(997)) +
               "</author>";
      }
      if (rng.Below(2) == 0) {
        xml += "<year>" + std::to_string(1990 + rng.Below(30)) + "</year>";
      }
      xml +=
          "<abstract>This abstract pads each record with enough character "
          "data that ingestion is dominated by text scanning, the profile "
          "of DBLP-like corpora: the lexer must find the next structural "
          "byte in runs of a few hundred bytes. Token " +
          std::to_string(rng.Next()) + ".</abstract>";
      if (rng.Below(8) == 0) {
        xml += "<note>flagged &amp; cross-checked</note>";
      }
      xml += "</record>";
    }
    xml += "</dataset>";
    total += static_cast<int64_t>(xml.size());
    documents.push_back(std::move(xml));
  }
  return documents;
}

std::vector<std::string> LearnCorpus(uint64_t seed) {
  constexpr int kNamesPerTarget = 4;
  constexpr size_t kInstancesPerDoc = 200;
  std::vector<std::string> instances;
  for (int k = 0; k < kNamesPerTarget; ++k) {
    std::vector<condtd::ExperimentCase> cases =
        condtd::BuildTable2Cases(seed * 8 + static_cast<uint64_t>(k));
    for (const condtd::ExperimentCase& c : cases) {
      std::string element = c.name + "_" + std::to_string(k);
      for (const condtd::Word& word : c.sample) {
        std::string xml = "<" + element + ">";
        for (condtd::Symbol s : word) {
          xml += "<" + c.alphabet.Name(s) + "/>";
        }
        xml += "</" + element + ">";
        instances.push_back(std::move(xml));
      }
    }
  }
  Rng rng(seed ^ 0x6C6561726E);
  for (size_t i = instances.size(); i > 1; --i) {
    std::swap(instances[i - 1], instances[rng.Below(i)]);
  }
  std::vector<std::string> documents;
  for (size_t i = 0; i < instances.size(); i += kInstancesPerDoc) {
    std::string xml = "<learn>";
    size_t end = std::min(instances.size(), i + kInstancesPerDoc);
    for (size_t j = i; j < end; ++j) xml += instances[j];
    xml += "</learn>";
    documents.push_back(std::move(xml));
  }
  return documents;
}

std::vector<std::string> ServeDocuments(uint64_t seed) {
  // Table 1's text documents as the repository's own benches render them,
  // at their pinned corpus seed; the workload seed draws only the order.
  // With seeded word samples the query's learn step swung between 1 and
  // 7 ms from seed to seed (iDTD on some samples), which would make the
  // query latency depend on which seeds a run draws. Learner cost across
  // samples is infer_learn's subject.
  std::vector<std::string> documents =
      condtd::bench_util::Table1TextDocuments();
  Rng rng(seed);
  for (size_t i = documents.size(); i > 1; --i) {
    std::swap(documents[i - 1], documents[rng.Below(i)]);
  }
  return documents;
}

std::vector<std::string> WorkloadDocuments(const std::string& workload,
                                           uint64_t seed) {
  if (workload == "infer_text") return TextCorpus(seed);
  if (workload == "infer_learn") return LearnCorpus(seed);
  if (workload == "serve_mixed") return ServeDocuments(seed);
  return {};
}

bool WriteDocuments(const std::string& dir,
                    const std::vector<std::string>& documents,
                    size_t count) {
  for (size_t i = 0; i < count; ++i) {
    const std::string& document = documents[i % documents.size()];
    char name[32];
    std::snprintf(name, sizeof(name), "/%05zu.xml", i);
    std::FILE* file = std::fopen((dir + name).c_str(), "wb");
    if (file == nullptr) return false;
    size_t written = std::fwrite(document.data(), 1, document.size(), file);
    // Durable before measuring: writeback must not overlap the passes.
    bool synced = std::fflush(file) == 0 && ::fsync(::fileno(file)) == 0;
    if (std::fclose(file) != 0 || !synced || written != document.size()) {
      return false;
    }
  }
  return true;
}

std::vector<std::string> ListXmlFiles(const std::string& dir) {
  std::vector<std::string> files;
  std::error_code error;
  for (const auto& entry : std::filesystem::directory_iterator(dir, error)) {
    if (entry.path().extension() == ".xml") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace perfbench
