#include "sim/obs_io.hpp"

#include <fstream>
#include <optional>
#include <sstream>

#include "util/error.hpp"

namespace tomo::sim {

void write_observations(std::ostream& os, const PathObservations& obs) {
  os << "tomo-observations v1\n";
  os << "paths " << obs.path_count() << " snapshots "
     << obs.snapshot_count() << '\n';
  for (PathId p = 0; p < obs.path_count(); ++p) {
    bool any = false;
    for (std::size_t n = 0; n < obs.snapshot_count(); ++n) {
      if (obs.congested(p, n)) {
        if (!any) {
          os << "congested " << p;
          any = true;
        }
        os << ' ' << n;
      }
    }
    if (any) os << '\n';
  }
}

PathObservations read_observations(std::istream& is) {
  std::string line;
  std::size_t line_no = 0;
  auto fail = [&](const std::string& what) -> void {
    throw Error("observations line " + std::to_string(line_no) + ": " +
                what);
  };

  bool have_header = false;
  std::optional<PathObservations> obs;
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
      if (obs.has_value()) fail("duplicate dimension line");
      if (paths == 0 || snapshots == 0) fail("empty observation matrix");
      try {
        obs.emplace(paths, snapshots);
      } catch (const Error& e) {
        fail(e.message());
      }
    } else if (tag == "congested") {
      if (!obs.has_value()) fail("congested line before dimensions");
      std::size_t p;
      if (!(ls >> p)) fail("malformed congested line");
      if (p >= obs->path_count()) fail("path id out of range");
      std::size_t n;
      while (ls >> n) {
        if (n >= obs->snapshot_count()) fail("snapshot id out of range");
        obs->set_congested(p, n);
      }
    } else {
      fail("unknown tag '" + tag + "'");
    }
  }
  TOMO_REQUIRE(have_header, "observation file is empty or missing header");
  TOMO_REQUIRE(obs.has_value(), "observation file has no dimension line");
  return *std::move(obs);
}

void write_observations(std::ostream& os, const MeasurementBlock& block) {
  TOMO_REQUIRE(!block.empty(), "cannot serialize an empty measurement block");
  os << "tomo-observations v1\n";
  os << "paths " << block.path_count << " snapshots " << block.snapshot_count
     << '\n';
  for (PathId p = 0; p < block.path_count; ++p) {
    const std::uint64_t* good = block.good_row(p);
    bool any = false;
    for (std::size_t n = 0; n < block.snapshot_count; ++n) {
      // Congested = the good bit is clear (exact complement of the rows).
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

MeasurementBlock read_observation_block(std::istream& is) {
  return MeasurementBlock::from_observations(read_observations(is));
}

void save_observations(const std::string& filename,
                       const PathObservations& obs) {
  std::ofstream os(filename);
  TOMO_REQUIRE(os.good(), "cannot open " + filename + " for writing");
  write_observations(os, obs);
  TOMO_REQUIRE(os.good(), "failed writing " + filename);
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

PathObservations load_observations(const std::string& filename) {
  std::ifstream is(filename);
  TOMO_REQUIRE(is.good(), "cannot open " + filename);
  return read_observations(is);
}

}  // namespace tomo::sim
