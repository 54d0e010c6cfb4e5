#include "stream/obs_stream.hpp"

#include <istream>
#include <ostream>
#include <sstream>

#include "sim/obs_io.hpp"
#include "util/error.hpp"

namespace tomo::stream {

ObsStreamWriter::ObsStreamWriter(std::ostream& os, std::size_t path_count)
    : os_(os), path_count_(path_count) {
  TOMO_REQUIRE(path_count > 0, "obs stream needs at least one path");
  os_ << "tomo-obs-stream v1\n";
  os_ << "paths " << path_count << '\n';
  os_.flush();
}

void ObsStreamWriter::write_window(const sim::MeasurementBlock& window) {
  TOMO_REQUIRE(!closed_, "obs stream already closed");
  TOMO_REQUIRE(window.path_count == path_count_,
               "window path count does not match the stream header");
  os_ << "window " << window.snapshot_count << '\n';
  sim::write_congested_lines(os_, window);
  os_ << "end\n";
  os_.flush();
}

void ObsStreamWriter::close() {
  if (closed_) return;
  closed_ = true;
  os_ << "close\n";
  os_.flush();
}

ObsStreamReader::ObsStreamReader(std::istream& is) : is_(is) {}

void ObsStreamReader::fail(const std::string& what) const {
  throw Error("obs-stream line " + std::to_string(line_no_) + ": " + what);
}

bool ObsStreamReader::parse_line(std::string line) {
  ++line_no_;
  const auto hash = line.find('#');
  if (hash != std::string::npos) line.erase(hash);
  std::istringstream ls(line);
  std::string tag;
  if (!(ls >> tag)) return false;
  // The sim line helpers and the block allocation throw without a
  // position.
  const auto at_line = [&](auto&& step) {
    try {
      step();
    } catch (const Error& e) {
      fail(e.message());
    }
  };
  const auto line_end = [&] { at_line([&] { sim::expect_line_end(ls); }); };

  if (!have_header_) {
    std::string version;
    const bool known =
        tag == "tomo-obs-stream" || tag == "tomo-observations";
    if (!known || !(ls >> version) || version != "v1") {
      fail("expected 'tomo-obs-stream v1' or 'tomo-observations v1'");
    }
    line_end();
    batch_ = tag == "tomo-observations";
    have_header_ = true;
    return false;
  }
  if (closed_) fail("content after the close marker");
  const auto open_window = [&](std::size_t snapshots) {
    at_line([&] {
      pending_ = sim::MeasurementBlock::all_good(paths_, snapshots);
    });
  };

  if (tag == "paths") {
    if (paths_ != 0) fail("duplicate dimension line");
    if (batch_) {
      std::size_t snapshots = 0;
      std::string snap_tag;
      if (!(ls >> paths_ >> snap_tag >> snapshots) ||
          snap_tag != "snapshots") {
        fail("malformed dimension line");
      }
      line_end();
      if (paths_ == 0 || snapshots == 0) fail("empty observation matrix");
      open_window(snapshots);
    } else {
      if (!(ls >> paths_) || paths_ == 0) fail("malformed paths line");
      line_end();
    }
    return false;
  }
  if (tag == "window") {
    if (batch_) fail("window marker in a batch observation file");
    if (paths_ == 0) fail("window before the paths line");
    if (pending_.has_value()) fail("nested window");
    std::size_t count = 0;
    if (!(ls >> count) || count == 0) fail("malformed window line");
    line_end();
    open_window(count);
    return false;
  }
  if (tag == "congested") {
    if (!pending_.has_value()) {
      fail(batch_ ? "congested line before dimensions"
                  : "congested line outside a window");
    }
    at_line([&] { sim::read_congested_line(ls, *pending_); });
    return false;
  }
  if (tag == "end") {
    if (batch_) fail("end marker in a batch observation file");
    if (!pending_.has_value()) fail("end without a window");
    line_end();
    pending_->recount();
    return true;
  }
  if (tag == "close") {
    if (batch_) fail("close marker in a batch observation file");
    if (pending_.has_value()) fail("close inside a window");
    line_end();
    closed_ = true;
    return false;
  }
  fail("unknown tag '" + tag + "'");
}

std::optional<sim::MeasurementBlock> ObsStreamReader::next() {
  if (closed_) return std::nullopt;
  std::string line;
  while (std::getline(is_, line)) {
    if (is_.eof()) {
      if (batch_) {
        // A complete classic file whose last line lacks a newline: parse
        // it, then fall through to the single-window finalization.
        if (!carry_.empty()) {
          line = carry_ + line;
          carry_.clear();
        }
        parse_line(std::move(line));
        break;
      }
      // The trailing line has no terminator yet — it may still be mid-
      // write by the producer. Buffer it; a retry after clear() resumes.
      carry_ += line;
      return std::nullopt;
    }
    if (!carry_.empty()) {
      line = carry_ + line;
      carry_.clear();
    }
    if (parse_line(std::move(line))) {
      sim::MeasurementBlock window = std::move(*pending_);
      pending_.reset();
      return window;
    }
  }
  if (batch_ && pending_.has_value()) {
    // Classic complete file: EOF is the delimiter of its single window.
    pending_->recount();
    closed_ = true;
    sim::MeasurementBlock block = std::move(*pending_);
    pending_.reset();
    return block;
  }
  return std::nullopt;
}

}  // namespace tomo::stream
