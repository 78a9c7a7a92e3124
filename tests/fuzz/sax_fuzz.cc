// Fuzz target: the zero-copy SAX pull lexer, both DOM parser modes
// (strict and tag-soup lenient) built on it, and a differential check
// of the two ways a document folds into summaries: the DOM reference
// (DtdInferrer::AddXml) and the streaming fold (StreamingFolder). In
// each mode they must agree on accepting or rejecting the input and,
// when both accept, on the written DTD; any divergence traps.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dtd/dtd_writer.h"
#include "infer/inferrer.h"
#include "infer/streaming.h"
#include "xml/parser.h"
#include "xml/sax.h"

namespace {

/// Folds `input` through the DOM path or the streaming fold. Returns
/// whether the document was accepted; when it was, `schema` receives
/// the written DTD (or the inference error).
bool Fold(std::string_view input, bool lenient, bool streaming,
          std::string* schema) {
  condtd::InferenceOptions options;
  options.lenient_xml = lenient;
  condtd::DtdInferrer inferrer(options);
  condtd::Status status;
  if (streaming) {
    condtd::StreamingFolder folder(&inferrer);
    status = folder.AddXml(input);
  } else {
    status = inferrer.AddXml(input);
  }
  if (!status.ok()) return false;
  condtd::Result<condtd::Dtd> dtd = inferrer.InferDtd();
  *schema = dtd.ok() ? condtd::WriteDtd(dtd.value(), *inferrer.alphabet())
                     : dtd.status().ToString();
  return true;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > 65536) return 0;
  std::string_view input(reinterpret_cast<const char*>(data), size);

  condtd::SaxLexer lexer(input);
  while (true) {
    condtd::Result<condtd::SaxEvent> event = lexer.Next();
    if (!event.ok()) break;
    if (event->kind == condtd::SaxEventKind::kEof) break;
    // Touch the borrowed views so ASan sees out-of-bounds storage.
    if (event->kind == condtd::SaxEventKind::kStartElement) {
      for (const condtd::SaxAttribute& attr : lexer.attributes()) {
        volatile size_t sink = attr.key.size() + attr.value.size();
        (void)sink;
      }
    }
  }

  (void)condtd::ParseXml(input);
  std::vector<std::string> recovered;
  (void)condtd::ParseXmlLenient(input, &recovered);

  for (bool lenient : {false, true}) {
    std::string dom_schema;
    std::string streaming_schema;
    bool dom_ok = Fold(input, lenient, /*streaming=*/false, &dom_schema);
    bool streaming_ok =
        Fold(input, lenient, /*streaming=*/true, &streaming_schema);
    if (dom_ok != streaming_ok) __builtin_trap();
    if (dom_ok && dom_schema != streaming_schema) __builtin_trap();
  }
  return 0;
}
