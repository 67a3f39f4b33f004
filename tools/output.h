#pragma once

// Where tempriv-campaign and tempriv-merge write. A file named by its own
// option (--jsonl, --telemetry) goes there; everything else lands in the
// --out directory, which defaults to the current directory.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "metrics/table.h"

namespace tempriv::cli {

/// The results directory when --out is not given.
inline constexpr const char* kDefaultOutDir = ".";

/// `name` inside directory `dir`.
inline std::string in_dir(const std::string& dir, const std::string& name) {
  return (std::filesystem::path(dir) / name).string();
}

/// Opens `path` for writing, creating its parent directories first.
/// Throws std::runtime_error if the file cannot be opened.
inline std::ofstream open_output(const std::string& path) {
  std::error_code ec;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  std::ofstream file(path);
  if (!file) {
    throw std::runtime_error("cannot open " + path + " for writing");
  }
  return file;
}

/// Prints `table` under a "== tag ==" banner and saves it as
/// <dir>/<tag>.csv. Throws std::runtime_error if the CSV cannot be written.
inline void emit_table(const std::string& dir, const std::string& tag,
                       const metrics::Table& table) {
  std::cout << "\n== " << tag << " ==\n";
  table.print(std::cout);
  const std::string path = in_dir(dir, tag + ".csv");
  std::ofstream file = open_output(path);
  table.write_csv(file);
  file.flush();
  if (!file) throw std::runtime_error("short write on " + path);
  std::cout << "(csv: " << path << ")\n";
}

}  // namespace tempriv::cli
