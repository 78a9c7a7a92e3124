// Seeded workload inputs. The same seed always yields byte-identical
// documents; the programs under test only ever see these documents.
#ifndef CONDTD_PERFBENCH_INPUTS_H_
#define CONDTD_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// infer_text: ~256 MiB of ~75 KiB text-dominant record documents.
std::vector<std::string> TextCorpus(uint64_t seed);

/// infer_learn: Table 2's five targets, each instantiated under four
/// element names with a sample of the paper's size drawn from `seed`,
/// shuffled and packed a few hundred instances per document.
std::vector<std::string> LearnCorpus(uint64_t seed);

/// serve_mixed: bench_util.h's Table1TextDocuments (~1.35 KB text
/// documents, one per Table 1 sample word, at most 1000 per case) in an
/// order drawn from `seed`. Ingest cycles through them in that order.
std::vector<std::string> ServeDocuments(uint64_t seed);

/// The corpus of `workload` ("infer_text", "infer_learn", "serve_mixed");
/// empty for an unknown name.
std::vector<std::string> WorkloadDocuments(const std::string& workload,
                                           uint64_t seed);

/// Writes documents[i % size] for i in [0, count) as DIR/00000.xml, ...
/// (DIR must exist).
/// Returns false on an I/O error.
bool WriteDocuments(const std::string& dir,
                    const std::vector<std::string>& documents, size_t count);

/// The *.xml files of `dir`, sorted by name.
std::vector<std::string> ListXmlFiles(const std::string& dir);

}  // namespace perfbench

#endif  // CONDTD_PERFBENCH_INPUTS_H_
