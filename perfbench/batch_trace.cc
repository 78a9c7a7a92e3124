// The batch probes: the traced jobs=1 pipeline pass and the untraced
// IngestEngine runs. Spans are taken here, around calls into each
// layer's public functions; nothing inside the library is instrumented.
// run.py starts every probe in a process of its own, as `condtd infer`
// runs: an engine that runs after another fold in the same process pays
// for the allocator state that fold left (glibc raises its mmap and trim
// thresholds, and the jobs=4 Finish on infer_text went from 0.17-0.20 s
// to 0.35-0.55 s).

#include <algorithm>

#include "dtd/dtd_writer.h"
#include "harness.h"
#include "infer/engine.h"
#include "infer/inferrer.h"
#include "infer/streaming.h"
#include "io/input_buffer.h"
#include "xml/sax.h"

namespace perfbench {

namespace {

using condtd::Dtd;
using condtd::DtdInferrer;
using condtd::IngestEngine;
using condtd::InputBuffer;
using condtd::Result;
using condtd::Status;

bool Emit(const DtdInferrer& inferrer, int threads, std::string* dtd,
          std::string* error) {
  Result<Dtd> inferred = inferrer.InferDtd(threads);
  if (!inferred.ok()) {
    *error = inferred.status().ToString();
    return false;
  }
  *dtd = condtd::WriteDtd(*inferred, inferrer.alphabet());
  return true;
}

bool FinishEngine(IngestEngine* engine, std::string* error) {
  Status status = engine->Finish();
  if (!status.ok()) *error = status.ToString();
  return status.ok();
}

IngestEngine::Options EngineOptions(int jobs) {
  IngestEngine::Options options;
  options.jobs = jobs;
  return options;
}

}  // namespace

bool TracedPass(const std::vector<std::string>& files, JsonLine* out,
                std::string* dtd, std::string* error) {
  // The traced pass: the jobs=1 pipeline with a span per layer call. Each
  // file is opened, folded and released in turn, as IngestEngine::AddFile
  // does at jobs=1, so the spans are the only difference from the
  // untraced engine run. Its wall minus the spans is
  // trace.unattributed_s (it holds the buffers' unmapping).
  double pass_start = NowS();
  DtdInferrer inferrer;
  condtd::StreamingFolder folder(&inferrer);
  double open_s = 0;
  double add_xml_s = 0;
  int64_t mapped = 0;
  for (const std::string& file : files) {
    double start = NowS();
    Result<InputBuffer> buffer = InputBuffer::Open(file);
    open_s += NowS() - start;
    if (!buffer.ok()) {
      *error = file + ": " + buffer.status().ToString();
      return false;
    }
    mapped += buffer->is_mapped() ? 1 : 0;
    Status status = Status::OK();
    add_xml_s += TimeS([&] { status = folder.AddXml(buffer->view()); });
    if (!status.ok()) {
      *error = file + ": " + status.ToString();
      return false;
    }
  }
  double flush_s = TimeS([&] { folder.Flush(); });
  Result<Dtd> inferred = Status::Internal("not run");
  double infer_dtd_s = TimeS([&] { inferred = inferrer.InferDtd(kJobs); });
  if (!inferred.ok()) {
    *error = inferred.status().ToString();
    return false;
  }
  double emit_s =
      TimeS([&] { *dtd = condtd::WriteDtd(*inferred, *inferrer.alphabet()); });
  double wall_s = NowS() - pass_start;

  // Attribution probe, after the pass: a bare SaxLexer pass over every
  // file, re-opened from the page cache as the pass found them, to split
  // AddXml into lexing and the fold's own work.
  int64_t events = 0;
  double lex_s = 0;
  condtd::SaxLexer lexer;
  for (const std::string& file : files) {
    Result<InputBuffer> buffer = InputBuffer::Open(file);
    if (!buffer.ok()) {
      *error = file + ": " + buffer.status().ToString();
      return false;
    }
    lex_s += TimeS([&] {
      lexer.Reset(buffer->view());
      while (true) {
        Result<condtd::SaxEvent> event = lexer.Next();
        if (!event.ok() || event->kind == condtd::SaxEventKind::kEof) break;
        ++events;
      }
    });
  }

  // Per-element learning, serially: the work InferDtd fans out.
  std::vector<condtd::Symbol> elements = inferrer.Elements();
  double serial_s = 0;
  double max_element_s = 0;
  for (condtd::Symbol element : elements) {
    double spent = TimeS([&] { (void)inferrer.InferContentModel(element); });
    serial_s += spent;
    max_element_s = std::max(max_element_s, spent);
  }

  int64_t hits = folder.dedup_hits();
  int64_t lookups = hits + folder.dedup_misses();
  double spans = open_s + add_xml_s + flush_s + infer_dtd_s + emit_s;
  out->Num("io.open_s", open_s);
  out->Num("io.mapped_ratio",
           files.empty() ? 0.0 : static_cast<double>(mapped) / files.size());
  out->Num("xml.lex_s", lex_s);
  out->Num("xml.events", static_cast<double>(events));
  out->Num("infer.add_xml_s", add_xml_s);
  out->Num("infer.fold_self_s", add_xml_s - lex_s);
  out->Num("infer.flush_s", flush_s);
  out->Num("infer.words", static_cast<double>(folder.words_folded()));
  out->Num("infer.dedup_hit_ratio",
           lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups);
  out->Num("learn.infer_dtd_s", infer_dtd_s);
  out->Num("learn.serial_s", serial_s);
  out->Num("learn.max_element_s", max_element_s);
  out->Num("learn.fanout_efficiency", serial_s / (kJobs * infer_dtd_s));
  out->Num("learn.elements", static_cast<double>(elements.size()));
  out->Num("dtd.emit_s", emit_s);
  out->Num("trace.wall_s", wall_s);
  out->Num("trace.unattributed_s", wall_s - spans);
  return true;
}

bool EngineRun(const std::vector<std::string>& files, int jobs,
               JsonLine* out, std::string* dtd, std::string* error) {
  double start = NowS();
  IngestEngine engine(EngineOptions(jobs));
  for (const std::string& file : files) engine.AddFile(file);
  double submitted = NowS();
  if (!FinishEngine(&engine, error)) return false;
  double finished = NowS();
  if (!Emit(engine.inferrer(), kJobs, dtd, error)) return false;
  out->Num("submit_s", submitted - start);
  out->Num("finish_s", finished - submitted);
  out->Num("wall_s", NowS() - start);
  return true;
}

bool ReferenceDtdOfDocuments(const std::vector<std::string>& documents,
                             const std::vector<int64_t>& indices,
                             std::string* dtd, std::string* error) {
  IngestEngine engine(EngineOptions(1));
  for (int64_t index : indices) {
    engine.AddXml(documents[static_cast<size_t>(index) % documents.size()]);
  }
  return FinishEngine(&engine, error) &&
         Emit(engine.inferrer(), engine.infer_threads(), dtd, error);
}

}  // namespace perfbench
