#include "osm/xml.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/error.hpp"

namespace mts::osm {
namespace {

OsmData sample_data() {
  OsmData data;
  OsmNode n1;
  n1.id = OsmNodeId(1);
  n1.lat = 42.36;
  n1.lon = -71.06;
  OsmNode n2;
  n2.id = OsmNodeId(2);
  n2.lat = 42.37;
  n2.lon = -71.05;
  n2.tags["amenity"] = "hospital";
  n2.tags["name"] = "Mass <General> & \"Friends\"";
  data.nodes = {n1, n2};

  OsmWay way;
  way.id = OsmWayId(100);
  way.node_refs = {OsmNodeId(1), OsmNodeId(2)};
  way.tags["highway"] = "residential";
  way.tags["maxspeed"] = "25 mph";
  way.tags["oneway"] = "yes";
  data.ways = {way};
  return data;
}

TEST(XmlEscape, RoundTripsSpecialCharacters) {
  const std::string raw = "a & b < c > d \" e ' f";
  EXPECT_EQ(xml_unescape(xml_escape(raw)), raw);
}

TEST(XmlUnescape, NumericReferences) {
  EXPECT_EQ(xml_unescape("&#65;&#x42;"), "AB");
  EXPECT_EQ(xml_unescape("&#233;"), "\xC3\xA9");  // é in UTF-8
}

TEST(XmlUnescape, RejectsBadEntities) {
  EXPECT_THROW(xml_unescape("&bogus;"), InvalidInput);
  EXPECT_THROW(xml_unescape("&unterminated"), InvalidInput);
  EXPECT_THROW(xml_unescape("&#xZZ;"), InvalidInput);
}

TEST(OsmXml, WriteParseRoundTrip) {
  const OsmData original = sample_data();
  std::stringstream stream;
  write_osm_xml(original, stream);
  const OsmData parsed = parse_osm_xml(stream);

  ASSERT_EQ(parsed.nodes.size(), 2u);
  ASSERT_EQ(parsed.ways.size(), 1u);
  EXPECT_EQ(parsed.nodes[0].id, OsmNodeId(1));
  EXPECT_NEAR(parsed.nodes[0].lat, 42.36, 1e-9);
  EXPECT_NEAR(parsed.nodes[1].lon, -71.05, 1e-9);
  EXPECT_EQ(*parsed.nodes[1].tag("amenity"), "hospital");
  EXPECT_EQ(*parsed.nodes[1].tag("name"), "Mass <General> & \"Friends\"");
  EXPECT_EQ(parsed.ways[0].id, OsmWayId(100));
  EXPECT_EQ(parsed.ways[0].node_refs,
            (std::vector<OsmNodeId>{OsmNodeId(1), OsmNodeId(2)}));
  EXPECT_EQ(*parsed.ways[0].tag("maxspeed"), "25 mph");
  EXPECT_EQ(*parsed.ways[0].tag("oneway"), "yes");
}

// `mts generate` output must not depend on the standard library's hash
// order: tags come out sorted by key whatever order they went in.
TEST(OsmXml, WriterBytesArePinnedWithTagsInKeyOrder) {
  OsmData data;
  OsmNode plain;
  plain.id = OsmNodeId(1);
  plain.lat = 42.5;
  plain.lon = -71.25;
  OsmNode poi;
  poi.id = OsmNodeId(2);
  poi.lat = 42.75;
  poi.lon = -71.125;
  for (const char* key : {"name", "emergency", "amenity", "operator", "beds"}) {
    poi.tags[key] = std::string(key) + "-value";
  }
  poi.tags["name"] = "A & B";
  data.nodes = {plain, poi};
  OsmWay way;
  way.id = OsmWayId(100);
  way.node_refs = {OsmNodeId(1), OsmNodeId(2)};
  for (const char* key : {"lanes", "highway", "surface", "maxspeed", "name", "oneway", "width"}) {
    way.tags[key] = std::string(key) + "-value";
  }
  data.ways = {way};

  std::ostringstream out;
  write_osm_xml(data, out);
  EXPECT_EQ(out.str(),
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
            "<osm version=\"0.6\" generator=\"mts-citygen\">\n"
            "  <node id=\"1\" lat=\"42.5\" lon=\"-71.25\"/>\n"
            "  <node id=\"2\" lat=\"42.75\" lon=\"-71.125\">\n"
            "    <tag k=\"amenity\" v=\"amenity-value\"/>\n"
            "    <tag k=\"beds\" v=\"beds-value\"/>\n"
            "    <tag k=\"emergency\" v=\"emergency-value\"/>\n"
            "    <tag k=\"name\" v=\"A &amp; B\"/>\n"
            "    <tag k=\"operator\" v=\"operator-value\"/>\n"
            "  </node>\n"
            "  <way id=\"100\">\n"
            "    <nd ref=\"1\"/>\n"
            "    <nd ref=\"2\"/>\n"
            "    <tag k=\"highway\" v=\"highway-value\"/>\n"
            "    <tag k=\"lanes\" v=\"lanes-value\"/>\n"
            "    <tag k=\"maxspeed\" v=\"maxspeed-value\"/>\n"
            "    <tag k=\"name\" v=\"name-value\"/>\n"
            "    <tag k=\"oneway\" v=\"oneway-value\"/>\n"
            "    <tag k=\"surface\" v=\"surface-value\"/>\n"
            "    <tag k=\"width\" v=\"width-value\"/>\n"
            "  </way>\n"
            "</osm>\n");
}

TEST(OsmXml, ParsesSingleQuotedAttributesAndComments) {
  std::stringstream in(R"(<?xml version='1.0'?>
<!-- a comment <node id="99"/> inside -->
<osm version='0.6'>
  <node id='5' lat='1.5' lon='2.5'/>
</osm>)");
  const auto data = parse_osm_xml(in);
  ASSERT_EQ(data.nodes.size(), 1u);
  EXPECT_EQ(data.nodes[0].id, OsmNodeId(5));
}

TEST(OsmXml, SkipsUnknownElements) {
  std::stringstream in(R"(<osm>
  <bounds minlat="0" maxlat="1"/>
  <relation id="7"><member type="way" ref="1"/><tag k="type" v="route"/></relation>
  <node id="1" lat="0" lon="0"/>
</osm>)");
  const auto data = parse_osm_xml(in);
  ASSERT_EQ(data.nodes.size(), 1u);
  EXPECT_TRUE(data.nodes[0].tags.empty());  // relation's tag not attributed
  EXPECT_TRUE(data.ways.empty());
}

TEST(OsmXml, RejectsMissingAttributes) {
  std::stringstream in("<osm><node id=\"1\" lat=\"0\"/></osm>");
  EXPECT_THROW(parse_osm_xml(in), InvalidInput);
}

TEST(OsmXml, RejectsMalformedNumbers) {
  std::stringstream in("<osm><node id=\"abc\" lat=\"0\" lon=\"0\"/></osm>");
  EXPECT_THROW(parse_osm_xml(in), InvalidInput);
}

TEST(OsmXml, RejectsUnterminatedElement) {
  std::stringstream in("<osm><node id=\"1\" lat=\"0\" lon=\"0\"");
  EXPECT_THROW(parse_osm_xml(in), InvalidInput);
}

TEST(OsmXml, EmptyDocument) {
  std::stringstream in("<osm/>");
  const auto data = parse_osm_xml(in);
  EXPECT_TRUE(data.nodes.empty());
  EXPECT_TRUE(data.ways.empty());
}

TEST(OsmXml, NodeIndexMapsIds) {
  const auto data = sample_data();
  const auto index = data.node_index();
  EXPECT_EQ(index.at(OsmNodeId(1)), 0u);
  EXPECT_EQ(index.at(OsmNodeId(2)), 1u);
}

}  // namespace
}  // namespace mts::osm
