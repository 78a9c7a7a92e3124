#ifndef CONDTD_XML_PARSER_H_
#define CONDTD_XML_PARSER_H_

#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "xml/dom.h"

namespace condtd {

/// Parses an XML document from memory into a DOM tree built from
/// `SaxLexer` events. Strict about well-formedness (tag balance, single
/// root, nesting at most kMaxElementDepth); permissive about the things
/// noisy real-world data gets wrong (unknown entities, valueless
/// attributes).
Result<XmlDocument> ParseXml(std::string_view input);

/// Tag-soup recovery mode for the Section 1.1 reality that 89% of
/// real-world XHTML is not well-formed: mismatched end tags close the
/// intermediate elements (HTML-parser style), stray end tags are
/// dropped, unclosed elements are closed at EOF, and content after the
/// root is ignored. `recovered_errors`, when non-null, receives a
/// description of every repair. Only lexical errors (unterminated
/// comments/tags) still fail.
Result<XmlDocument> ParseXmlLenient(std::string_view input,
                                    std::vector<std::string>*
                                        recovered_errors = nullptr);

}  // namespace condtd

#endif  // CONDTD_XML_PARSER_H_
