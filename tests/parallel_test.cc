#include <gtest/gtest.h>

#include <algorithm>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/rng.h"
#include "crx/crx.h"
#include "automaton/soa.h"
#include "automaton/two_t_inf.h"
#include "dtd/dtd_parser.h"
#include "dtd/dtd_writer.h"
#include "gen/xml_gen.h"
#include "infer/engine.h"
#include "infer/inferrer.h"
#include "tests/testing.h"

namespace condtd {
namespace {

using testing_util::WordsFromStrings;

// --- merge algebra --------------------------------------------------------

Soa SoaOf(const std::vector<std::string>& strings, Alphabet* alphabet) {
  return Infer2T(WordsFromStrings(strings, alphabet));
}

/// Structural equality plus every support count (Soa::Equals ignores
/// supports on purpose; the merge tests must not).
void ExpectSoaIdentical(const Soa& a, const Soa& b) {
  ASSERT_TRUE(a.Equals(b));
  EXPECT_EQ(a.empty_support(), b.empty_support());
  for (int q = 0; q < a.NumStates(); ++q) {
    int bq = b.StateOf(a.LabelOf(q));
    ASSERT_GE(bq, 0);
    EXPECT_EQ(a.StateSupport(q), b.StateSupport(bq));
    EXPECT_EQ(a.InitialSupport(q), b.InitialSupport(bq));
    EXPECT_EQ(a.FinalSupport(q), b.FinalSupport(bq));
    for (int to : a.Successors(q)) {
      EXPECT_EQ(a.EdgeSupport(q, to),
                b.EdgeSupport(bq, b.StateOf(a.LabelOf(to))));
    }
  }
}

TEST(SoaMerge, MatchesSequentialFold) {
  Alphabet alphabet;
  std::vector<std::string> part1 = {"abc", "", "ab"};
  std::vector<std::string> part2 = {"cba", "abc", "b"};
  Soa merged = SoaOf(part1, &alphabet);
  merged.MergeFrom(SoaOf(part2, &alphabet));
  std::vector<std::string> all = part1;
  all.insert(all.end(), part2.begin(), part2.end());
  ExpectSoaIdentical(merged, SoaOf(all, &alphabet));
}

TEST(SoaMerge, AssociativeAndCommutative) {
  Alphabet alphabet;
  Soa a = SoaOf({"ab", "ba"}, &alphabet);
  Soa b = SoaOf({"bc", ""}, &alphabet);
  Soa c = SoaOf({"ca", "abc"}, &alphabet);

  // (a ⊕ b) ⊕ c
  Soa left = a;
  left.MergeFrom(b);
  left.MergeFrom(c);
  // a ⊕ (b ⊕ c)
  Soa bc = b;
  bc.MergeFrom(c);
  Soa right = a;
  right.MergeFrom(bc);
  ExpectSoaIdentical(left, right);

  // b ⊕ a (commutativity, up to state numbering)
  Soa ba = b;
  ba.MergeFrom(a);
  Soa ab = a;
  ab.MergeFrom(b);
  ExpectSoaIdentical(ab, ba);
}

CrxState CrxOf(const std::vector<std::string>& strings,
               Alphabet* alphabet) {
  CrxState state;
  state.AddWords(WordsFromStrings(strings, alphabet));
  return state;
}

void ExpectCrxIdentical(const CrxState& a, const CrxState& b) {
  EXPECT_EQ(a.edges(), b.edges());
  EXPECT_EQ(a.histograms(), b.histograms());
  EXPECT_EQ(a.empty_count(), b.empty_count());
  EXPECT_EQ(a.num_words(), b.num_words());
}

TEST(CrxMerge, MatchesSequentialFold) {
  Alphabet alphabet;
  std::vector<std::string> part1 = {"aab", "", "ba"};
  std::vector<std::string> part2 = {"ab", "aab", "c"};
  CrxState merged = CrxOf(part1, &alphabet);
  merged.MergeFrom(CrxOf(part2, &alphabet));
  std::vector<std::string> all = part1;
  all.insert(all.end(), part2.begin(), part2.end());
  ExpectCrxIdentical(merged, CrxOf(all, &alphabet));
}

TEST(CrxMerge, AssociativeAndCommutative) {
  Alphabet alphabet;
  CrxState a = CrxOf({"ab", "aab", ""}, &alphabet);
  CrxState b = CrxOf({"bc", "b"}, &alphabet);
  CrxState c = CrxOf({"ca", "", "abc"}, &alphabet);

  CrxState left = a;
  left.MergeFrom(b);
  left.MergeFrom(c);
  CrxState bc = b;
  bc.MergeFrom(c);
  CrxState right = a;
  right.MergeFrom(bc);
  ExpectCrxIdentical(left, right);

  CrxState ab = a;
  ab.MergeFrom(b);
  CrxState ba = b;
  ba.MergeFrom(a);
  ExpectCrxIdentical(ab, ba);
}

// --- corpus fixtures ------------------------------------------------------

std::vector<std::string> GenerateCorpus(int count, uint64_t seed) {
  Alphabet alphabet;
  Result<Dtd> truth = ParseDtd(
      "<!ELEMENT feed (entry+)>\n"
      "<!ELEMENT entry (title, updated?, (link | content)*, author)>\n"
      "<!ELEMENT title (#PCDATA)>\n"
      "<!ELEMENT updated (#PCDATA)>\n"
      "<!ELEMENT link EMPTY>\n"
      "<!ELEMENT content (#PCDATA)>\n"
      "<!ELEMENT author (name, email?)>\n"
      "<!ELEMENT name (#PCDATA)>\n"
      "<!ELEMENT email (#PCDATA)>\n",
      &alphabet);
  EXPECT_TRUE(truth.ok());
  Rng rng(seed);
  std::vector<std::string> documents;
  documents.reserve(count);
  for (int i = 0; i < count; ++i) {
    Result<XmlDocument> doc =
        GenerateDocument(truth.value(), alphabet, &rng);
    EXPECT_TRUE(doc.ok());
    documents.push_back(doc->ToXml());
  }
  return documents;
}

std::string SequentialDtd(const std::vector<std::string>& documents) {
  DtdInferrer inferrer;
  for (const std::string& doc : documents) {
    Status status = inferrer.AddXml(doc);
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  Result<Dtd> dtd = inferrer.InferDtd();
  EXPECT_TRUE(dtd.ok()) << dtd.status().ToString();
  return WriteDtd(dtd.value(), *inferrer.alphabet());
}

IngestEngine::Options JobsOptions(int jobs) {
  IngestEngine::Options options;
  options.jobs = jobs;
  return options;
}

std::string EngineDtd(IngestEngine* engine) {
  Result<Dtd> dtd = engine->inferrer().InferDtd(engine->infer_threads());
  EXPECT_TRUE(dtd.ok()) << dtd.status().ToString();
  return WriteDtd(dtd.value(), *engine->inferrer().alphabet());
}

std::string ParallelDtd(const std::vector<std::string>& documents,
                        int jobs) {
  IngestEngine engine(JobsOptions(jobs));
  for (const std::string& doc : documents) engine.AddXml(doc);
  Status status = engine.Finish();
  EXPECT_TRUE(status.ok()) << status.ToString();
  return EngineDtd(&engine);
}

// --- determinism ----------------------------------------------------------

TEST(ParallelInferrer, ShardedIngestionIsByteIdenticalToSequential) {
  std::vector<std::string> documents = GenerateCorpus(240, 20060912);
  std::string expected = SequentialDtd(documents);
  for (int shards : {1, 2, 7}) {
    EXPECT_EQ(ParallelDtd(documents, shards), expected)
        << "shard count " << shards;
  }
}

TEST(ParallelInferrer, DeterministicForAnyDocumentOrder) {
  std::vector<std::string> documents = GenerateCorpus(180, 4711);
  // A permuted corpus must again match its own sequential run (the
  // contract is parallel == sequential per corpus order, for any order).
  Rng rng(99);
  rng.Shuffle(&documents);
  std::string expected = SequentialDtd(documents);
  for (int shards : {2, 7}) {
    EXPECT_EQ(ParallelDtd(documents, shards), expected)
        << "shard count " << shards;
  }
}

TEST(ParallelInferrer, PerElementInferenceThreadsDoNotChangeOutput) {
  std::vector<std::string> documents = GenerateCorpus(120, 31337);
  DtdInferrer inferrer;
  for (const std::string& doc : documents) {
    ASSERT_TRUE(inferrer.AddXml(doc).ok());
  }
  Result<Dtd> sequential = inferrer.InferDtd();
  Result<Dtd> threaded = inferrer.InferDtd(4);
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(threaded.ok());
  EXPECT_EQ(WriteDtd(sequential.value(), *inferrer.alphabet()),
            WriteDtd(threaded.value(), *inferrer.alphabet()));
}

TEST(ParallelInferrer, ReportsParseErrorsByDocumentIndex) {
  std::vector<std::string> documents = GenerateCorpus(20, 5);
  documents[7] = "<broken><unclosed></broken>";
  documents[13] = "not xml at all";
  IngestEngine engine(JobsOptions(3));
  for (const std::string& doc : documents) engine.AddXml(doc);
  Status status = engine.Finish();
  EXPECT_FALSE(status.ok());
  ASSERT_EQ(engine.errors().size(), 2u);
  EXPECT_EQ(engine.errors()[0].doc_index, 7);
  EXPECT_EQ(engine.errors()[1].doc_index, 13);
  // The merged state still holds every clean document.
  EXPECT_EQ(engine.inferrer().WordCount(
                engine.inferrer().alphabet()->Find("feed")),
            18);
}

TEST(ParallelInferrer, AggregatesAllDocumentErrors) {
  std::vector<std::string> documents = GenerateCorpus(12, 9);
  documents[2] = "<broken><unclosed></broken>";
  documents[5] = "not xml at all";
  documents[9] = "<feed><entry></feed>";
  IngestEngine engine(JobsOptions(4));
  for (const std::string& doc : documents) engine.AddXml(doc);
  Status status = engine.Finish();
  EXPECT_FALSE(status.ok());
  ASSERT_EQ(engine.errors().size(), 3u);
  EXPECT_EQ(engine.errors()[0].doc_index, 2);
  EXPECT_EQ(engine.errors()[1].doc_index, 5);
  EXPECT_EQ(engine.errors()[2].doc_index, 9);
  // The aggregate status names the failure count and the first failing
  // document, not just the front error's message.
  EXPECT_NE(status.message().find("3 documents failed"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("document 2"), std::string::npos)
      << status.ToString();
  // Finish is idempotent and keeps reporting the same aggregate.
  EXPECT_EQ(engine.Finish().message(), status.message());
}

TEST(ParallelInferrer, SingleFailureKeepsThatDocumentsStatus) {
  std::vector<std::string> documents = GenerateCorpus(8, 10);
  documents[3] = "not xml at all";
  IngestEngine engine(JobsOptions(3));
  for (const std::string& doc : documents) engine.AddXml(doc);
  Status status = engine.Finish();
  EXPECT_FALSE(status.ok());
  ASSERT_EQ(engine.errors().size(), 1u);
  EXPECT_EQ(status.message(), engine.errors().front().status.message());
  EXPECT_EQ(status.message().find("documents failed"), std::string::npos)
      << status.ToString();
}

TEST(ParallelInferrer, EveryIngesterReportsTheSameAggregate) {
  const std::vector<std::string> documents = {
      "<broken><unclosed></broken>", "<feed/>", "not xml at all"};
  const std::string expected =
      "ParseError: 2 documents failed to ingest (first: document 0: "
      "mismatched closing tag </broken>; expected </unclosed>)";
  for (int jobs : {1, 2}) {
    IngestEngine engine(JobsOptions(jobs));
    for (const std::string& doc : documents) engine.AddXml(doc);
    EXPECT_EQ(engine.Finish().ToString(), expected) << "jobs=" << jobs;
  }
}

/// Installs a throwing ingest fault for the test's duration; the
/// destructor uninstalls it even when an assertion fails first.
struct ScopedIngestFault {
  explicit ScopedIngestFault(IngestEngine::IngestFault fault) {
    IngestEngine::SetIngestFaultForTest(fault);
  }
  ~ScopedIngestFault() { IngestEngine::SetIngestFaultForTest(nullptr); }
};

/// Documents 5 and 11 throw mid-ingestion.
void ThrowOnDocuments5And11(int64_t doc_index) {
  if (doc_index == 5) throw std::bad_alloc();
  if (doc_index == 11) throw std::length_error("simulated oversize");
}

TEST(ParallelInferrer, SurvivesWorkerExceptions) {
  std::vector<std::string> documents = GenerateCorpus(20, 77);
  // Without the containment these would escape the worker's thread
  // entry point and std::terminate the whole process.
  ScopedIngestFault fault(&ThrowOnDocuments5And11);
  IngestEngine engine(JobsOptions(3));
  for (const std::string& doc : documents) engine.AddXml(doc);
  Status status = engine.Finish();
  EXPECT_FALSE(status.ok());
  ASSERT_EQ(engine.errors().size(), 2u);
  EXPECT_EQ(engine.errors()[0].doc_index, 5);
  EXPECT_EQ(engine.errors()[1].doc_index, 11);
  EXPECT_EQ(engine.errors()[0].status.code(), StatusCode::kInternal);
  EXPECT_NE(engine.errors()[1].status.message().find("simulated oversize"),
            std::string::npos)
      << engine.errors()[1].status.ToString();
  // Every other document folded; the failed ones contributed nothing.
  EXPECT_EQ(engine.inferrer().WordCount(
                engine.inferrer().alphabet()->Find("feed")),
            18);
}

TEST(ParallelInferrer, InlineFoldContainsExceptionsLikeTheWorkers) {
  // jobs=1 folds on the caller's thread; an exception there must become
  // the same DocumentError as on a worker instead of escaping to a
  // caller that does not catch it (the CLI, daemon recovery).
  std::vector<std::string> documents = GenerateCorpus(20, 77);
  std::vector<std::string> survivors;
  for (size_t i = 0; i < documents.size(); ++i) {
    if (i != 5 && i != 11) survivors.push_back(documents[i]);
  }
  const std::string expected_dtd = SequentialDtd(survivors);
  ScopedIngestFault fault(&ThrowOnDocuments5And11);
  std::vector<std::string> errors_by_jobs;
  for (int jobs : {1, 3}) {
    IngestEngine engine(JobsOptions(jobs));
    for (const std::string& doc : documents) engine.AddXml(doc);
    EXPECT_FALSE(engine.Finish().ok()) << "jobs=" << jobs;
    std::string errors;
    for (const IngestEngine::DocumentError& error : engine.errors()) {
      errors += std::to_string(error.doc_index) + ": " +
                error.status.ToString() + "\n";
    }
    errors_by_jobs.push_back(errors);
    EXPECT_EQ(EngineDtd(&engine), expected_dtd) << "jobs=" << jobs;
  }
  EXPECT_EQ(errors_by_jobs[0],
            "5: Internal: exception while ingesting document: "
            "std::bad_alloc\n"
            "11: Internal: exception while ingesting document: "
            "simulated oversize\n");
  EXPECT_EQ(errors_by_jobs[1], errors_by_jobs[0]);
}

TEST(ParallelInferrer, WorkerExceptionsDoNotPerturbSurvivingDocuments) {
  std::vector<std::string> documents = GenerateCorpus(60, 4242);
  // Expected result: a sequential run over the corpus minus the faulted
  // documents.
  std::vector<std::string> survivors;
  for (size_t i = 0; i < documents.size(); ++i) {
    if (i % 10 != 7) survivors.push_back(documents[i]);
  }
  std::string expected = SequentialDtd(survivors);
  ScopedIngestFault fault(+[](int64_t doc_index) {
    if (doc_index % 10 == 7) throw std::runtime_error("injected");
  });
  for (int jobs : {1, 2, 5}) {
    IngestEngine engine(JobsOptions(jobs));
    for (const std::string& doc : documents) engine.AddXml(doc);
    EXPECT_FALSE(engine.Finish().ok());
    EXPECT_EQ(engine.errors().size(), 6u);
    EXPECT_EQ(EngineDtd(&engine), expected) << "jobs " << jobs;
  }
}

// --- DtdInferrer::MergeFrom ----------------------------------------------

TEST(InferrerMerge, ContiguousShardsMergedInOrderMatchSequential) {
  std::vector<std::string> documents = GenerateCorpus(150, 2222);
  std::string expected = SequentialDtd(documents);

  // Three shard inferrers over contiguous corpus blocks, merged in block
  // order: interning replays in document order, so the result is
  // byte-identical to the sequential run.
  DtdInferrer merged;
  for (int block = 0; block < 3; ++block) {
    DtdInferrer shard;
    for (size_t i = block * 50; i < (block + 1) * 50u; ++i) {
      ASSERT_TRUE(shard.AddXml(documents[i]).ok());
    }
    merged.MergeFrom(shard);
  }
  Result<Dtd> dtd = merged.InferDtd();
  ASSERT_TRUE(dtd.ok());
  EXPECT_EQ(WriteDtd(dtd.value(), *merged.alphabet()), expected);
}

TEST(InferrerMerge, MergeMatchesLoadStateMerge) {
  // MergeFrom must agree with the established text-format merge path
  // (LoadState on a non-empty inferrer), which the persistence tests pin.
  std::vector<std::string> documents = GenerateCorpus(80, 909);
  DtdInferrer a;
  DtdInferrer b;
  for (size_t i = 0; i < documents.size(); ++i) {
    ASSERT_TRUE(((i < 40) ? a : b).AddXml(documents[i]).ok());
  }
  DtdInferrer via_merge;
  via_merge.MergeFrom(a);
  via_merge.MergeFrom(b);
  DtdInferrer via_state;
  ASSERT_TRUE(via_state.LoadState(a.SaveState()).ok());
  ASSERT_TRUE(via_state.LoadState(b.SaveState()).ok());
  EXPECT_EQ(via_merge.SaveState(), via_state.SaveState());
}

// --- batch scheduler ------------------------------------------------------

/// Corpus sizes around the engine's 32-document batch: a lone document,
/// one short of a batch, exactly one, one over, and several batches.
constexpr int kCorpusSizes[] = {1, 31, 32, 33, 120};

/// SaveState reduced to what it says about the summaries: each
/// element section's lines sorted, so two states compare equal when they
/// hold the same states, edges, supports and counts, whatever order each
/// shard's SOA first saw its states in. Text sample lines are kept apart
/// (also sorted per section), with the most samples one element kept.
struct CanonicalState {
  std::string summaries;
  std::string samples;
  int max_samples_per_element = 0;
};

CanonicalState Canonical(const std::string& state) {
  CanonicalState canonical;
  std::vector<std::string> lines;
  std::vector<std::string> samples;
  auto close_section = [&] {
    std::sort(lines.begin(), lines.end());
    std::sort(samples.begin(), samples.end());
    for (const std::string& line : lines) canonical.summaries += line;
    canonical.samples += "--\n";
    for (const std::string& line : samples) canonical.samples += line;
    canonical.max_samples_per_element = std::max(
        canonical.max_samples_per_element, static_cast<int>(samples.size()));
    lines.clear();
    samples.clear();
  };
  size_t start = 0;
  while (start < state.size()) {
    size_t end = state.find('\n', start) + 1;
    std::string line = state.substr(start, end - start);
    if (line.rfind("element ", 0) == 0) {
      close_section();
      canonical.summaries += line;
    } else if (line.rfind("text ", 0) == 0) {
      samples.push_back(line);
    } else {
      lines.push_back(line);
    }
    start = end;
  }
  close_section();
  return canonical;
}

std::string SequentialState(const std::vector<std::string>& documents) {
  DtdInferrer inferrer;
  for (const std::string& doc : documents) {
    EXPECT_TRUE(inferrer.AddXml(doc).ok());
  }
  return inferrer.SaveState();
}

TEST(BatchScheduler, CorpusSizeNeverChangesTheContract) {
  // Batch boundaries only decide hand-off granularity: a partial last
  // batch, an exact batch and a lone document must all reproduce the
  // sequential DTD byte for byte at every job count. jobs=1 folds
  // inline, so its SaveState is byte-identical to the sequential fold's.
  // Sharded states hold the same summaries, but not the same bytes: a
  // merged SOA lists its states in the order the shards delivered them,
  // and once an element reaches max_text_samples which samples it keeps
  // depends on the shard layout (IngestEngine's class comment). So they
  // are compared canonically, samples only below the cap, and must
  // reload to the same DTD.
  std::vector<std::string> corpus = GenerateCorpus(120, 60221023);
  const int cap = InferenceOptions{}.max_text_samples;
  for (int size : kCorpusSizes) {
    std::vector<std::string> documents(corpus.begin(), corpus.begin() + size);
    const std::string expected = SequentialDtd(documents);
    const std::string sequential_state = SequentialState(documents);
    const CanonicalState sequential = Canonical(sequential_state);
    for (int jobs : {1, 2, 7}) {
      IngestEngine engine(JobsOptions(jobs));
      for (const std::string& doc : documents) engine.AddXml(doc);
      ASSERT_TRUE(engine.Finish().ok());
      EXPECT_EQ(EngineDtd(&engine), expected)
          << "size " << size << " jobs " << jobs;
      const std::string state = engine.inferrer().SaveState();
      if (jobs == 1) {
        EXPECT_EQ(state, sequential_state) << "size " << size;
      }
      CanonicalState canonical = Canonical(state);
      EXPECT_EQ(canonical.summaries, sequential.summaries)
          << "size " << size << " jobs " << jobs;
      if (sequential.max_samples_per_element < cap) {
        EXPECT_EQ(canonical.samples, sequential.samples)
            << "size " << size << " jobs " << jobs;
      }
      DtdInferrer reloaded;
      ASSERT_TRUE(reloaded.LoadState(state).ok());
      Result<Dtd> dtd = reloaded.InferDtd();
      ASSERT_TRUE(dtd.ok()) << dtd.status().ToString();
      EXPECT_EQ(WriteDtd(dtd.value(), *reloaded.alphabet()), expected)
          << "size " << size << " jobs " << jobs;
    }
  }
}

TEST(BatchScheduler, ErrorIndicesSurviveBatching) {
  // Document indices in error reports are assigned at submission, so
  // they must be stable however documents land in batches and shards:
  // the first document, both sides of the first batch boundary and the
  // last document fail.
  std::vector<std::string> corpus = GenerateCorpus(120, 5);
  for (int size : kCorpusSizes) {
    std::vector<std::string> documents(corpus.begin(), corpus.begin() + size);
    std::vector<int64_t> broken;
    for (int index : {0, 7, 31, 32, size - 1}) {
      if (index < size &&
          std::find(broken.begin(), broken.end(), index) == broken.end()) {
        broken.push_back(index);
      }
    }
    for (int64_t index : broken) documents[index] = "not xml at all";
    for (int jobs : {1, 2, 7}) {
      IngestEngine engine(JobsOptions(jobs));
      for (const std::string& doc : documents) engine.AddXml(doc);
      EXPECT_FALSE(engine.Finish().ok());
      ASSERT_EQ(engine.errors().size(), broken.size())
          << "size " << size << " jobs " << jobs;
      for (size_t i = 0; i < broken.size(); ++i) {
        EXPECT_EQ(engine.errors()[i].doc_index, broken[i])
            << "size " << size << " jobs " << jobs;
      }
    }
  }
}

TEST(BatchScheduler, DestroyingAnUnfinishedEngineJoinsItsWorkers) {
  // An engine dropped before Finish (an early return in a caller) must
  // drain its queue and join its workers, not leak or abort them.
  std::vector<std::string> documents = GenerateCorpus(70, 8);
  IngestEngine engine(JobsOptions(3));
  for (const std::string& doc : documents) engine.AddXml(doc);
}

}  // namespace
}  // namespace condtd
