#include "store/calibration_store.hpp"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <utility>

#include "core/contracts.hpp"
#include "core/telemetry.hpp"

namespace stf::store {

namespace fs = std::filesystem;

namespace {

// A single bundle section (model or screen payload) may not exceed this;
// a hostile length field must fail before any allocation is attempted.
constexpr std::size_t kMaxSectionBytes = std::size_t{1} << 26;

/// Filesystem-safe rendering of one key field: alnum, '.', '_', '-' pass
/// through, everything else becomes '_'. Collisions are disambiguated by
/// the hash tag key_dir() appends.
std::string sanitize(const std::string& field) {
  std::string out;
  out.reserve(field.size());
  for (char c : field) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// FNV-1a 64-bit, rendered as 16 hex digits: the stable per-key dir tag.
std::string fnv1a_hex(const std::string& text) {
  std::uint64_t h = 14695981039346656037ULL;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[h & 0xF];
    h >>= 4;
  }
  return out;
}

/// "v<N>.stfcal", the file name of version N. Built with append: GCC 12
/// reports a false -Wrestrict for `"v" + std::to_string(n)` once it is
/// inlined into a caller.
std::string version_filename(std::uint64_t version) {
  return std::string("v").append(std::to_string(version)).append(".stfcal");
}

/// Parse the <N> of a "v<N>.stfcal" filename; 0 when it is not one.
std::uint64_t version_of_filename(const std::string& name) {
  if (name.empty() || name.size() < std::string("v1.stfcal").size()) return 0;
  if (name.front() != 'v') return 0;
  const std::string suffix = ".stfcal";
  if (name.size() <= suffix.size() + 1 ||
      name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0)
    return 0;
  const char* first = name.data() + 1;
  const char* last = name.data() + name.size() - suffix.size();
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec != std::errc() || ptr != last) return 0;
  return v;
}

/// Write-temp-then-rename: the only way bytes reach the store directory.
/// Readers either see the previous file set or the complete new file;
/// a crash mid-write leaves at worst an orphaned .tmp never loaded.
void write_atomic(const fs::path& target, const std::string& text) {
  const fs::path tmp = target.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw StoreError("cannot open " + tmp.string() + " for write");
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    out.flush();
    if (!out) {
      std::error_code ec;
      fs::remove(tmp, ec);
      throw StoreError("write failed for " + tmp.string());
    }
  }
  std::error_code ec;
  fs::rename(tmp, target, ec);
  if (ec) {
    std::error_code rm_ec;
    fs::remove(tmp, rm_ec);
    throw StoreError("rename to " + target.string() + " failed: " +
                     ec.message());
  }
}

/// Bounded whole-file read with a typed error on anything unexpected.
std::string read_file(const fs::path& path, std::size_t max_bytes) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw StoreError("cannot open " + path.string());
  const std::streamoff size = in.tellg();
  if (size < 0) throw StoreError("cannot size " + path.string());
  if (static_cast<std::size_t>(size) > max_bytes)
    throw StoreError(path.string() + " exceeds bundle size limit");
  std::string text(static_cast<std::size_t>(size), '\0');
  in.seekg(0);
  in.read(text.data(), size);
  if (!in) throw StoreError("short read on " + path.string());
  return text;
}

/// Line/byte cursor over a bundle; every malformation is a StoreError
/// naming what was being read when the bytes ran out or went wrong.
struct Cursor {
  const std::string& text;
  std::size_t pos = 0;

  std::string line(const char* what) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos)
      throw StoreError(std::string("truncated bundle reading ") + what);
    std::string l = text.substr(pos, nl - pos);
    pos = nl + 1;
    return l;
  }

  std::string take(std::size_t n, const char* what) {
    if (text.size() - pos < n)
      throw StoreError(std::string("truncated ") + what + " payload");
    std::string payload = text.substr(pos, n);
    pos += n;
    return payload;
  }
};

/// Parse "<keyword> <u64>"; rejects partial parses and missing keywords.
std::uint64_t u64_field(const std::string& line, const std::string& keyword) {
  if (line.compare(0, keyword.size() + 1, keyword + ' ') != 0)
    throw StoreError("expected \"" + keyword + " <n>\", got \"" + line +
                     "\"");
  const char* first = line.data() + keyword.size() + 1;
  const char* last = line.data() + line.size();
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || ptr != last)
    throw StoreError("bad " + keyword + " value in \"" + line + "\"");
  return value;
}

}  // namespace

std::string StoreKey::canonical() const {
  std::ostringstream os;
  os << scenario << '|' << device_type << '|' << temp_bin_c;
  return os.str();
}

CalibrationStore::CalibrationStore(std::string root_dir)
    : root_(std::move(root_dir)) {
  STF_REQUIRE(!root_.empty(), "CalibrationStore: empty root dir");
  std::error_code ec;
  fs::create_directories(root_, ec);
  if (ec)
    throw StoreError("cannot create root " + root_ + ": " + ec.message());
}

std::string CalibrationStore::key_dir(const StoreKey& key) const {
  const std::string canonical = key.canonical();
  return root_ + "/" + sanitize(key.scenario) + "__" +
         sanitize(key.device_type) + "__t" + std::to_string(key.temp_bin_c) +
         "-" + fnv1a_hex(canonical);
}

// stf-analyze: allow(api-contract) -- a missing dir is a valid miss (0)
std::uint64_t CalibrationStore::scan_latest(const std::string& dir) const {
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return 0;  // key never persisted
  std::uint64_t latest = 0;
  for (const auto& entry : it)
    latest = std::max(latest, version_of_filename(
                                  entry.path().filename().string()));
  return latest;
}

std::string CalibrationStore::bundle_text(const StoredCalibration& stored) {
  STF_REQUIRE(stored.model != nullptr, "bundle_text: null model");
  const std::string model_text = stored.model->serialize();
  const std::string screen_text =
      stored.screen != nullptr ? stored.screen->serialize() : std::string();
  std::ostringstream os;
  os << "stf-calstore v1\n";
  os << "version " << stored.version << '\n';
  os << "model " << model_text.size() << '\n' << model_text;
  os << "screen " << screen_text.size() << '\n' << screen_text;
  os << "end\n";
  return os.str();
}

StoredCalibration CalibrationStore::parse_bundle(
    const std::string& text, std::uint64_t expect_version) {
  Cursor cur{text};
  if (cur.line("header") != "stf-calstore v1")
    throw StoreError("bad bundle header (want \"stf-calstore v1\")");
  const std::uint64_t version = u64_field(cur.line("version"), "version");
  if (version != expect_version)
    throw StoreError("bundle claims version " + std::to_string(version) +
                     " but file names version " +
                     std::to_string(expect_version));

  const std::uint64_t model_len = u64_field(cur.line("model"), "model");
  if (model_len == 0 || model_len > kMaxSectionBytes)
    throw StoreError("model section length " + std::to_string(model_len) +
                     " out of range");
  const std::string model_text =
      cur.take(static_cast<std::size_t>(model_len), "model");

  const std::uint64_t screen_len = u64_field(cur.line("screen"), "screen");
  if (screen_len > kMaxSectionBytes)
    throw StoreError("screen section length " + std::to_string(screen_len) +
                     " out of range");
  const std::string screen_text =
      cur.take(static_cast<std::size_t>(screen_len), "screen");

  if (cur.line("trailer") != "end")
    throw StoreError("bad bundle trailer (want \"end\")");
  if (cur.pos != text.size())
    throw StoreError("trailing bytes after bundle trailer");

  StoredCalibration stored;
  // Payload corruption surfaces as the parsers' own typed errors.
  stored.model = std::make_shared<const stf::sigtest::CalibrationModel>(
      stf::sigtest::CalibrationModel::deserialize(model_text));
  if (screen_len > 0)
    stored.screen = std::make_shared<const stf::sigtest::OutlierScreen>(
        stf::sigtest::OutlierScreen::deserialize(screen_text));
  stored.version = version;
  return stored;
}

std::uint64_t CalibrationStore::put(
    const StoreKey& key,
    std::shared_ptr<const stf::sigtest::CalibrationModel> model,
    std::shared_ptr<const stf::sigtest::OutlierScreen> screen) {
  STF_TRACE_SPAN("store.put");
  STF_REQUIRE(model != nullptr && model->fitted(),
              "CalibrationStore::put: model missing or unfitted");
  STF_REQUIRE(screen == nullptr || screen->fitted(),
              "CalibrationStore::put: unfitted screen");
  const stf::core::LockGuard lock(mutex_);
  const fs::path dir(key_dir(key));
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec)
    throw StoreError("cannot create " + dir.string() + ": " + ec.message());

  const fs::path key_file = dir / "key.txt";
  if (!fs::exists(key_file, ec)) {
    std::ostringstream os;
    os << "stf-store-key v1\n";
    os << "scenario " << key.scenario << '\n';
    os << "device_type " << key.device_type << '\n';
    os << "temp_bin " << key.temp_bin_c << '\n';
    write_atomic(key_file, os.str());
  }

  StoredCalibration stored{std::move(model), std::move(screen),
                           scan_latest(dir.string()) + 1};
  write_atomic(dir / version_filename(stored.version), bundle_text(stored));
  STF_COUNT("store.persists");
  return stored.version;
}

StoredCalibration CalibrationStore::get(const StoreKey& key,
                                        std::uint64_t version) {
  STF_TRACE_SPAN("store.get");
  const stf::core::LockGuard lock(mutex_);
  const std::string dir = key_dir(key);
  std::uint64_t v = version;
  if (v == kLatest) {
    v = scan_latest(dir);
    if (v == 0)
      throw StoreError("no versions persisted for key " + key.canonical());
  }
  const fs::path file = fs::path(dir) / version_filename(v);
  std::error_code ec;
  if (!fs::exists(file, ec))
    throw StoreError("version " + std::to_string(v) + " of key " +
                     key.canonical() + " does not exist");
  StoredCalibration stored =
      parse_bundle(read_file(file, 2 * kMaxSectionBytes), v);
  STF_COUNT("store.loads");
  return stored;
}

std::uint64_t CalibrationStore::latest_version(const StoreKey& key) const {
  const stf::core::LockGuard lock(mutex_);
  return scan_latest(key_dir(key));
}

// stf-analyze: allow(api-contract) -- any key is queryable; absence = empty
std::vector<std::uint64_t> CalibrationStore::versions(
    const StoreKey& key) const {
  const stf::core::LockGuard lock(mutex_);
  std::vector<std::uint64_t> out;
  std::error_code ec;
  fs::directory_iterator it(key_dir(key), ec);
  if (ec) return out;
  for (const auto& entry : it) {
    const std::uint64_t v =
        version_of_filename(entry.path().filename().string());
    if (v != 0) out.push_back(v);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<StoreKey> CalibrationStore::keys() const {
  const stf::core::LockGuard lock(mutex_);
  std::vector<StoreKey> out;
  std::error_code ec;
  fs::directory_iterator it(root_, ec);
  if (ec) throw StoreError("cannot list root " + root_ + ": " + ec.message());
  for (const auto& entry : it) {
    if (!entry.is_directory(ec) || ec) continue;
    const fs::path key_file = entry.path() / "key.txt";
    if (!fs::exists(key_file, ec) || ec) continue;  // not a store key dir
    const std::string text = read_file(key_file, std::size_t{1} << 16);
    Cursor cur{text};
    if (cur.line("key header") != "stf-store-key v1")
      throw StoreError("bad key header in " + key_file.string());
    StoreKey key;
    const std::string scenario_line = cur.line("key scenario");
    const std::string device_line = cur.line("key device_type");
    const std::string temp_line = cur.line("key temp_bin");
    if (scenario_line.rfind("scenario ", 0) != 0 ||
        device_line.rfind("device_type ", 0) != 0 ||
        temp_line.rfind("temp_bin ", 0) != 0)
      throw StoreError("malformed key file " + key_file.string());
    key.scenario = scenario_line.substr(std::string("scenario ").size());
    key.device_type = device_line.substr(std::string("device_type ").size());
    const char* first = temp_line.data() + std::string("temp_bin ").size();
    const char* last = temp_line.data() + temp_line.size();
    const auto [ptr, parse_ec] = std::from_chars(first, last, key.temp_bin_c);
    if (parse_ec != std::errc() || ptr != last)
      throw StoreError("bad temp_bin in " + key_file.string());
    if (scan_latest(entry.path().string()) > 0) out.push_back(key);
  }
  std::sort(out.begin(), out.end(), [](const StoreKey& a, const StoreKey& b) {
    return a.canonical() < b.canonical();
  });
  return out;
}

std::size_t CalibrationStore::prune(const StoreKey& key,
                                    std::uint64_t keep_from) {
  const stf::core::LockGuard lock(mutex_);
  const std::string dir = key_dir(key);
  std::size_t removed = 0;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return 0;
  std::vector<fs::path> victims;
  std::uint64_t newest = 0;
  for (const auto& entry : it) {
    const std::uint64_t v =
        version_of_filename(entry.path().filename().string());
    newest = std::max(newest, v);
    if (v != 0 && v < keep_from) victims.push_back(entry.path());
  }
  if (newest != 0 && keep_from > newest)
    throw StoreError("prune: keep_from " + std::to_string(keep_from) +
                     " is past the newest version " + std::to_string(newest) +
                     " of " + key.canonical() +
                     "; a prune never deletes every version");
  for (const fs::path& victim : victims) {
    fs::remove(victim, ec);
    if (ec)
      throw StoreError("cannot remove " + victim.string() + ": " +
                       ec.message());
    ++removed;
  }
  return removed;
}

}  // namespace stf::store
