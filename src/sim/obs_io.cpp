#include "sim/obs_io.hpp"

#include <charconv>
#include <fstream>
#include <optional>
#include <sstream>

#include "util/error.hpp"

namespace tomo::sim {

namespace {

/// Parses a whole token as a decimal index; false on anything else
/// (sign, fraction, trailing characters, overflow).
bool parse_index(const std::string& token, std::size_t& out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

void write_congested_lines(std::ostream& os, const MeasurementBlock& block) {
  for (PathId p = 0; p < block.path_count; ++p) {
    const std::uint64_t* good = block.good_row(p);
    bool any = false;
    for (std::size_t n = 0; n < block.snapshot_count; ++n) {
      // Congested = the good bit is clear.
      if ((good[n / 64] >> (n % 64)) & 1) continue;
      if (!any) {
        os << "congested " << p;
        any = true;
      }
      os << ' ' << n;
    }
    if (any) os << '\n';
  }
}

void read_congested_line(std::istream& ls, MeasurementBlock& block) {
  std::string token;
  std::size_t p = 0;
  if (!(ls >> token) || !parse_index(token, p)) {
    throw Error("malformed congested line");
  }
  if (p >= block.path_count) throw Error("path id out of range");
  while (ls >> token) {
    std::size_t n = 0;
    if (!parse_index(token, n)) {
      throw Error("malformed congested line: '" + token +
                  "' is not a snapshot id");
    }
    if (n >= block.snapshot_count) throw Error("snapshot id out of range");
    block.set_congested(p, n);
  }
}

void expect_line_end(std::istream& ls) {
  std::string extra;
  if (ls >> extra) throw Error("unexpected trailing '" + extra + "'");
}

void write_observations(std::ostream& os, const MeasurementBlock& block) {
  TOMO_REQUIRE(!block.empty(), "cannot serialize an empty measurement block");
  os << "tomo-observations v1\n";
  os << "paths " << block.path_count << " snapshots " << block.snapshot_count
     << '\n';
  write_congested_lines(os, block);
}

MeasurementBlock read_observation_block(std::istream& is) {
  std::string line;
  std::size_t line_no = 0;
  auto fail = [&](const std::string& what) -> void {
    throw Error("observations line " + std::to_string(line_no) + ": " +
                what);
  };

  // The line helpers and the block allocation throw without a position.
  auto at_line = [&](auto&& step) {
    try {
      step();
    } catch (const Error& e) {
      fail(e.message());
    }
  };

  bool have_header = false;
  std::optional<MeasurementBlock> block;
  while (std::getline(is, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string tag;
    if (!(ls >> tag)) continue;
    if (!have_header) {
      std::string version;
      if (tag != "tomo-observations" || !(ls >> version) ||
          version != "v1") {
        fail("expected header 'tomo-observations v1'");
      }
      at_line([&] { expect_line_end(ls); });
      have_header = true;
      continue;
    }
    if (tag == "paths") {
      std::size_t paths = 0, snapshots = 0;
      std::string snap_tag;
      if (!(ls >> paths >> snap_tag >> snapshots) ||
          snap_tag != "snapshots") {
        fail("malformed dimension line");
      }
      at_line([&] { expect_line_end(ls); });
      if (block.has_value()) fail("duplicate dimension line");
      if (paths == 0 || snapshots == 0) fail("empty observation matrix");
      at_line([&] { block = MeasurementBlock::all_good(paths, snapshots); });
    } else if (tag == "congested") {
      if (!block.has_value()) fail("congested line before dimensions");
      at_line([&] { read_congested_line(ls, *block); });
    } else {
      fail("unknown tag '" + tag + "'");
    }
  }
  TOMO_REQUIRE(have_header, "observation file is empty or missing header");
  TOMO_REQUIRE(block.has_value(), "observation file has no dimension line");
  block->recount();
  return *std::move(block);
}

void save_observations(const std::string& filename,
                       const MeasurementBlock& block) {
  std::ofstream os(filename);
  TOMO_REQUIRE(os.good(), "cannot open " + filename + " for writing");
  write_observations(os, block);
  TOMO_REQUIRE(os.good(), "failed writing " + filename);
}

MeasurementBlock load_observation_block(const std::string& filename) {
  std::ifstream is(filename);
  TOMO_REQUIRE(is.good(), "cannot open " + filename);
  return read_observation_block(is);
}

}  // namespace tomo::sim
