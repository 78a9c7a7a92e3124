#include "xml/parser.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "xml/sax.h"

namespace condtd {

namespace {

/// Builds the element tree from SaxLexer events. Strict mode rejects
/// every well-formedness violation; lenient mode repairs tag soup and
/// reports each repair through `note`. Lexical errors fail either way.
Result<XmlDocument> BuildDocument(std::string_view input, bool lenient,
                                  std::vector<std::string>* recovered_errors) {
  SaxLexer lexer(input);
  XmlDocument doc;
  std::vector<XmlElement*> stack;
  auto note = [&](std::string message) {
    if (recovered_errors != nullptr) {
      recovered_errors->push_back(std::move(message));
    }
  };

  while (true) {
    Result<SaxEvent> next = lexer.Next();
    if (!next.ok()) return next.status();
    const SaxEvent& event = next.value();
    switch (event.kind) {
      case SaxEventKind::kEof:
        if (!stack.empty()) {
          if (!lenient) {
            return Status::ParseError("unexpected end of document inside <" +
                                      stack.back()->name() + ">");
          }
          note("closed " + std::to_string(stack.size()) +
               " unclosed element(s) at end of input");
        }
        if (doc.root == nullptr) {
          return Status::ParseError("document has no root element");
        }
        return doc;
      case SaxEventKind::kDoctype:
        if (doc.root != nullptr) {
          if (!lenient) {
            return Status::ParseError("DOCTYPE after the root element");
          }
          break;
        }
        doc.doctype = std::string(event.text);
        break;
      case SaxEventKind::kText:
        if (stack.empty()) {
          if (!lenient) {
            return Status::ParseError(
                "character data outside the root element at offset " +
                std::to_string(event.offset));
          }
          note("dropped character data outside the root element");
          break;
        }
        stack.back()->AppendText(event.text);
        break;
      case SaxEventKind::kStartElement: {
        XmlElement* element;
        if (!stack.empty()) {
          element = stack.back()->AddChild(std::string(event.name));
        } else if (doc.root == nullptr) {
          doc.root = std::make_unique<XmlElement>(std::string(event.name));
          element = doc.root.get();
        } else if (!lenient) {
          return Status::ParseError("multiple root elements (<" +
                                    std::string(event.name) + ">)");
        } else {
          // Recovery skips just this tag; its content lands outside the
          // root too and is dropped piece by piece.
          note("dropped content after the root element (<" +
               std::string(event.name) + ">)");
          break;
        }
        for (const SaxAttribute& attr : lexer.attributes()) {
          element->AddAttribute(std::string(attr.key),
                                std::string(attr.value));
        }
        if (!event.self_closing) {
          if (stack.size() >= kMaxElementDepth) {
            return Status::ParseError("element nesting deeper than " +
                                      std::to_string(kMaxElementDepth));
          }
          stack.push_back(element);
        }
        break;
      }
      case SaxEventKind::kEndElement: {
        if (!lenient) {
          if (stack.empty()) {
            return Status::ParseError("stray closing tag </" +
                                      std::string(event.name) + ">");
          }
          if (stack.back()->name() != event.name) {
            return Status::ParseError(
                "mismatched closing tag </" + std::string(event.name) +
                ">; expected </" + stack.back()->name() + ">");
          }
          stack.pop_back();
          break;
        }
        // Close down to the nearest open element with this name.
        size_t match = stack.size();
        for (size_t i = stack.size(); i > 0; --i) {
          if (stack[i - 1]->name() == event.name) {
            match = i - 1;
            break;
          }
        }
        if (match == stack.size()) {
          note("dropped stray closing tag </" + std::string(event.name) +
               ">");
          break;
        }
        if (match + 1 != stack.size()) {
          note("auto-closed " + std::to_string(stack.size() - match - 1) +
               " element(s) at </" + std::string(event.name) + ">");
        }
        stack.resize(match);
        break;
      }
    }
  }
}

}  // namespace

Result<XmlDocument> ParseXml(std::string_view input) {
  return BuildDocument(input, /*lenient=*/false, nullptr);
}

Result<XmlDocument> ParseXmlLenient(
    std::string_view input, std::vector<std::string>* recovered_errors) {
  return BuildDocument(input, /*lenient=*/true, recovered_errors);
}

}  // namespace condtd
