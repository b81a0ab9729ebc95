#include "osm/xml.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <iterator>
#include <optional>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/parse.hpp"

namespace mts::osm {

std::string xml_escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char ch : raw) {
    switch (ch) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out += ch;
    }
  }
  return out;
}

std::string xml_unescape(const std::string& escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (std::size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] != '&') {
      out += escaped[i];
      continue;
    }
    const auto semi = escaped.find(';', i);
    if (semi == std::string::npos) throw InvalidInput("xml_unescape: unterminated entity");
    const std::string entity = escaped.substr(i + 1, semi - i - 1);
    if (entity == "amp") out += '&';
    else if (entity == "lt") out += '<';
    else if (entity == "gt") out += '>';
    else if (entity == "quot") out += '"';
    else if (entity == "apos") out += '\'';
    else if (!entity.empty() && entity[0] == '#') {
      int code = 0;
      const bool hex = entity.size() > 1 && (entity[1] == 'x' || entity[1] == 'X');
      const char* begin = entity.data() + (hex ? 2 : 1);
      const char* end = entity.data() + entity.size();
      // mts-lint: allow(no-raw-number-parse) a character reference, not a number the program uses
      const auto [ptr, ec] = std::from_chars(begin, end, code, hex ? 16 : 10);
      if (ec != std::errc() || ptr != end || code <= 0 || code > 0x10FFFF) {
        throw InvalidInput("xml_unescape: bad character reference &" + entity + ";");
      }
      // UTF-8 encode; generators only emit ASCII but parsed files may not.
      if (code < 0x80) {
        out += static_cast<char>(code);
      } else if (code < 0x800) {
        out += static_cast<char>(0xC0 | (code >> 6));
        out += static_cast<char>(0x80 | (code & 0x3F));
      } else if (code < 0x10000) {
        out += static_cast<char>(0xE0 | (code >> 12));
        out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
        out += static_cast<char>(0x80 | (code & 0x3F));
      } else {
        out += static_cast<char>(0xF0 | (code >> 18));
        out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
        out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
        out += static_cast<char>(0x80 | (code & 0x3F));
      }
    } else {
      throw InvalidInput("xml_unescape: unknown entity &" + entity + ";");
    }
    i = semi;
  }
  return out;
}

namespace {

/// Writes `tags` in key order.  TagMap is a hash map, so its iteration
/// order depends on the standard library's hashing; the file's bytes must
/// not.
void write_tags(const TagMap& tags, std::ostream& out) {
  std::vector<std::pair<std::string, std::string>> sorted(tags.begin(), tags.end());
  std::sort(sorted.begin(), sorted.end());
  for (const auto& [k, v] : sorted) {
    out << "    <tag k=\"" << xml_escape(k) << "\" v=\"" << xml_escape(v) << "\"/>\n";
  }
}

}  // namespace

void write_osm_xml(const OsmData& data, std::ostream& out) {
  out << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  out << "<osm version=\"0.6\" generator=\"mts-citygen\">\n";
  out << std::setprecision(17);  // exact double round-trip
  for (const auto& node : data.nodes) {
    out << "  <node id=\"" << node.id.value() << "\" lat=\"" << node.lat << "\" lon=\""
        << node.lon << "\"";
    if (node.tags.empty()) {
      out << "/>\n";
    } else {
      out << ">\n";
      write_tags(node.tags, out);
      out << "  </node>\n";
    }
  }
  for (const auto& way : data.ways) {
    out << "  <way id=\"" << way.id.value() << "\">\n";
    for (OsmNodeId ref : way.node_refs) {
      out << "    <nd ref=\"" << ref.value() << "\"/>\n";
    }
    write_tags(way.tags, out);
    out << "  </way>\n";
  }
  out << "</osm>\n";
}

void save_osm_xml(const OsmData& data, const std::string& path) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream out(p);
  require(out.good(), "save_osm_xml: cannot open " + path);
  write_osm_xml(data, out);
}

namespace {

/// One parsed XML element tag: name, attributes, and whether it opens,
/// closes, or self-closes.
struct ElementTag {
  std::string name;
  std::unordered_map<std::string, std::string> attributes;
  bool closing = false;      // </name>
  bool self_closing = false; // <name ... />
};

class XmlScanner {
 public:
  explicit XmlScanner(std::istream& in) : text_(std::istreambuf_iterator<char>(in), {}) {}

  /// Next element tag, or nullopt at end of input.  Skips text content,
  /// comments, processing instructions, and doctypes.
  std::optional<ElementTag> next() {
    while (true) {
      const auto lt = text_.find('<', pos_);
      if (lt == std::string::npos) return std::nullopt;
      pos_ = lt + 1;
      if (starts_with("?")) {
        skip_until("?>");
        continue;
      }
      if (starts_with("!--")) {
        skip_until("-->");
        continue;
      }
      if (starts_with("!")) {
        skip_until(">");
        continue;
      }
      return parse_tag();
    }
  }

 private:
  bool starts_with(const std::string& prefix) const {
    return text_.compare(pos_, prefix.size(), prefix) == 0;
  }

  void skip_until(const std::string& marker) {
    const auto end = text_.find(marker, pos_);
    if (end == std::string::npos) throw InvalidInput("OSM XML: unterminated <" + marker);
    pos_ = end + marker.size();
  }

  ElementTag parse_tag() {
    ElementTag tag;
    if (text_[pos_] == '/') {
      tag.closing = true;
      ++pos_;
    }
    while (pos_ < text_.size() && (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                                   text_[pos_] == '_' || text_[pos_] == ':')) {
      tag.name += text_[pos_++];
    }
    if (tag.name.empty()) throw InvalidInput("OSM XML: element with empty name");

    while (true) {
      skip_whitespace();
      if (pos_ >= text_.size()) throw InvalidInput("OSM XML: unterminated element");
      if (text_[pos_] == '>') {
        ++pos_;
        return tag;
      }
      if (text_[pos_] == '/') {
        ++pos_;
        if (pos_ >= text_.size() || text_[pos_] != '>') {
          throw InvalidInput("OSM XML: malformed self-closing element");
        }
        ++pos_;
        tag.self_closing = true;
        return tag;
      }
      // attribute name
      std::string key;
      while (pos_ < text_.size() && text_[pos_] != '=' &&
             !std::isspace(static_cast<unsigned char>(text_[pos_]))) {
        key += text_[pos_++];
      }
      skip_whitespace();
      if (pos_ >= text_.size() || text_[pos_] != '=') {
        throw InvalidInput("OSM XML: attribute without value: " + key);
      }
      ++pos_;
      skip_whitespace();
      if (pos_ >= text_.size() || (text_[pos_] != '"' && text_[pos_] != '\'')) {
        throw InvalidInput("OSM XML: unquoted attribute value: " + key);
      }
      const char quote = text_[pos_++];
      const auto end = text_.find(quote, pos_);
      if (end == std::string::npos) throw InvalidInput("OSM XML: unterminated attribute value");
      tag.attributes[key] = xml_unescape(text_.substr(pos_, end - pos_));
      pos_ = end + 1;
    }
  }

  void skip_whitespace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }

  std::string text_;
  std::size_t pos_ = 0;
};

double parse_double_attr(const ElementTag& tag, const std::string& key) {
  const auto it = tag.attributes.find(key);
  if (it == tag.attributes.end()) {
    throw InvalidInput("OSM XML: <" + tag.name + "> missing attribute " + key);
  }
  const Parsed<double> parsed = parse_finite(it->second);
  if (!parsed) {
    throw InvalidInput("OSM XML: bad numeric attribute " + key + "=\"" + it->second + "\"");
  }
  return parsed.value;
}

std::int64_t parse_int_attr(const ElementTag& tag, const std::string& key) {
  const auto it = tag.attributes.find(key);
  if (it == tag.attributes.end()) {
    throw InvalidInput("OSM XML: <" + tag.name + "> missing attribute " + key);
  }
  const Parsed<std::int64_t> parsed = parse_signed(it->second);
  if (!parsed) {
    throw InvalidInput("OSM XML: bad integer attribute " + key + "=\"" + it->second + "\"");
  }
  return parsed.value;
}

}  // namespace

OsmData parse_osm_xml(std::istream& in) {
  XmlScanner scanner(in);
  OsmData data;

  enum class Scope { Top, Node, Way, SkippedElement };
  Scope scope = Scope::Top;
  std::string skipped_name;

  while (auto tag = scanner.next()) {
    if (scope == Scope::SkippedElement) {
      if (tag->closing && tag->name == skipped_name) scope = Scope::Top;
      continue;
    }
    if (tag->closing) {
      if (tag->name == "node" && scope == Scope::Node) scope = Scope::Top;
      else if (tag->name == "way" && scope == Scope::Way) scope = Scope::Top;
      else if (tag->name == "osm") break;
      continue;
    }

    if (tag->name == "node" && scope == Scope::Top) {
      OsmNode node;
      node.id = OsmNodeId(parse_int_attr(*tag, "id"));
      node.lat = parse_double_attr(*tag, "lat");
      node.lon = parse_double_attr(*tag, "lon");
      data.nodes.push_back(std::move(node));
      if (!tag->self_closing) scope = Scope::Node;
    } else if (tag->name == "way" && scope == Scope::Top) {
      OsmWay way;
      way.id = OsmWayId(parse_int_attr(*tag, "id"));
      data.ways.push_back(std::move(way));
      if (!tag->self_closing) scope = Scope::Way;
    } else if (tag->name == "nd" && scope == Scope::Way) {
      data.ways.back().node_refs.push_back(OsmNodeId(parse_int_attr(*tag, "ref")));
    } else if (tag->name == "tag" && (scope == Scope::Node || scope == Scope::Way)) {
      const auto k = tag->attributes.find("k");
      const auto v = tag->attributes.find("v");
      if (k == tag->attributes.end() || v == tag->attributes.end()) {
        throw InvalidInput("OSM XML: <tag> without k/v");
      }
      auto& tags = scope == Scope::Node ? data.nodes.back().tags : data.ways.back().tags;
      tags[k->second] = v->second;
    } else if (tag->name == "osm" || tag->self_closing) {
      // Root element or irrelevant leaf (e.g. <bounds .../>): ignore.
    } else {
      scope = Scope::SkippedElement;  // e.g. <relation> ... </relation>
      skipped_name = tag->name;
    }
  }
  return data;
}

OsmData load_osm_xml(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "load_osm_xml: cannot open " + path);
  return parse_osm_xml(in);
}

}  // namespace mts::osm
