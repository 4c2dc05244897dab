#include "data/csv_loader.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "common/check.h"
#include "common/logging.h"
#include "graph/sensor_graph.h"

namespace d2stgnn::data {
namespace {

// Gaussian-kernel weights below this are dropped (DCRNN and the paper use
// 0.1, as the synthetic generator does).
constexpr float kKernelThreshold = 0.1f;

// Splits a CSV line on commas (no quoting; traffic exports are plain).
std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  std::istringstream stream(line);
  while (std::getline(stream, cell, ',')) cells.push_back(cell);
  return cells;
}

// Parses a float; returns false on garbage (used to detect header rows).
bool ParseFloat(const std::string& text, float* value) {
  const char* begin = text.c_str();
  char* end = nullptr;
  const float parsed = std::strtof(begin, &end);
  if (end == begin) return false;
  while (*end == ' ' || *end == '\r' || *end == '\t') ++end;
  if (*end != '\0') return false;
  *value = parsed;
  return true;
}

}  // namespace

bool LoadCsvDataset(const std::string& readings_path,
                    const std::string& distances_path,
                    const CsvDatasetOptions& options, TimeSeriesDataset* out) {
  D2_CHECK(out != nullptr);

  // --- readings ---
  std::ifstream readings(readings_path);
  if (!readings.is_open()) {
    D2_LOG(ERROR) << "cannot open readings file " << readings_path;
    return false;
  }
  std::vector<float> values;
  int64_t num_nodes = -1;
  int64_t num_steps = 0;
  int64_t line_number = 0;  // physical 1-based line, for diagnostics
  std::string line;
  while (std::getline(readings, line)) {
    ++line_number;
    if (line.empty()) continue;
    const std::vector<std::string> cells = SplitCsvLine(line);
    std::vector<float> row;
    row.reserve(cells.size());
    bool numeric = true;
    for (size_t c = 0; c < cells.size(); ++c) {
      float v;
      if (!ParseFloat(cells[c], &v)) {
        if (num_steps == 0) {
          numeric = false;  // header row
          break;
        }
        D2_LOG(ERROR) << readings_path << ":" << line_number << ": column "
                      << c + 1 << ": non-numeric value '" << cells[c] << "'";
        return false;
      }
      if (!std::isfinite(v)) {
        D2_LOG(ERROR) << readings_path << ":" << line_number << ": column "
                      << c + 1 << ": non-finite value '" << cells[c]
                      << "' (mark missing data with the null value instead)";
        return false;
      }
      row.push_back(v);
    }
    if (!numeric) continue;  // header row
    if (num_nodes < 0) {
      num_nodes = static_cast<int64_t>(row.size());
    } else if (static_cast<int64_t>(row.size()) != num_nodes) {
      D2_LOG(ERROR) << readings_path << ":" << line_number
                    << ": ragged row: expected " << num_nodes
                    << " columns, got " << row.size();
      return false;
    }
    values.insert(values.end(), row.begin(), row.end());
    ++num_steps;
  }
  if (num_steps == 0 || num_nodes <= 0) {
    D2_LOG(ERROR) << "no data rows in " << readings_path;
    return false;
  }

  // --- distances ---
  std::ifstream distances(distances_path);
  if (!distances.is_open()) {
    D2_LOG(ERROR) << "cannot open distances file " << distances_path;
    return false;
  }
  std::vector<float> dist(
      static_cast<size_t>(num_nodes * num_nodes),
      std::numeric_limits<float>::infinity());
  for (int64_t i = 0; i < num_nodes; ++i) {
    dist[static_cast<size_t>(i * num_nodes + i)] = 0.0f;
  }
  int64_t edges = 0;
  line_number = 0;
  while (std::getline(distances, line)) {
    ++line_number;
    if (line.empty()) continue;
    const std::vector<std::string> cells = SplitCsvLine(line);
    if (cells.size() != 3) {
      D2_LOG(ERROR) << distances_path << ":" << line_number
                    << ": expected 3 columns (from,to,distance), got "
                    << cells.size();
      return false;
    }
    float from_f, to_f, d;
    if (!ParseFloat(cells[0], &from_f) || !ParseFloat(cells[1], &to_f) ||
        !ParseFloat(cells[2], &d)) {
      if (edges == 0) continue;  // header row
      D2_LOG(ERROR) << distances_path << ":" << line_number
                    << ": non-numeric distance row '" << line << "'";
      return false;
    }
    if (!std::isfinite(d) || d < 0.0f) {
      D2_LOG(ERROR) << distances_path << ":" << line_number << ": column 3"
                    << ": bad distance '" << cells[2]
                    << "' (must be finite and non-negative)";
      return false;
    }
    const int64_t from = static_cast<int64_t>(from_f);
    const int64_t to = static_cast<int64_t>(to_f);
    if (from < 0 || from >= num_nodes || to < 0 || to >= num_nodes) {
      D2_LOG(ERROR) << distances_path << ":" << line_number
                    << ": sensor index out of range in '" << line << "' ("
                    << num_nodes << " sensors)";
      return false;
    }
    dist[static_cast<size_t>(from * num_nodes + to)] = d;
    ++edges;
  }

  out->name = options.name;
  out->steps_per_day = options.steps_per_day;
  out->start_day_of_week = options.start_day_of_week;
  out->is_flow = options.is_flow;
  out->values = Tensor({num_steps, num_nodes}, std::move(values));
  out->network.num_nodes = num_nodes;
  out->network.directed = true;
  out->network.x.assign(static_cast<size_t>(num_nodes), 0.0f);
  out->network.y.assign(static_cast<size_t>(num_nodes), 0.0f);
  out->network.road_distance = Tensor({num_nodes, num_nodes}, std::move(dist));
  out->network.adjacency = graph::ThresholdedGaussianAdjacency(
      out->network.road_distance, kKernelThreshold);
  D2_LOG(INFO) << "loaded " << out->name << ": " << num_steps << " steps x "
               << num_nodes << " sensors, " << edges << " road segments";
  return true;
}

bool SaveCsvDataset(const TimeSeriesDataset& dataset,
                    const std::string& readings_path,
                    const std::string& distances_path) {
  std::ofstream readings(readings_path);
  if (!readings.is_open()) {
    D2_LOG(ERROR) << "cannot open " << readings_path << " for writing";
    return false;
  }
  const int64_t n = dataset.num_nodes();
  const std::vector<float>& values = dataset.values.Data();
  for (int64_t t = 0; t < dataset.num_steps(); ++t) {
    for (int64_t i = 0; i < n; ++i) {
      if (i > 0) readings << ",";
      readings << values[static_cast<size_t>(t * n + i)];
    }
    readings << "\n";
  }

  std::ofstream distances(distances_path);
  if (!distances.is_open()) {
    D2_LOG(ERROR) << "cannot open " << distances_path << " for writing";
    return false;
  }
  distances << "from,to,distance\n";
  const std::vector<float>& dist = dataset.network.road_distance.Data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      const float d = dist[static_cast<size_t>(i * n + j)];
      if (i != j && std::isfinite(d)) {
        distances << i << "," << j << "," << d << "\n";
      }
    }
  }
  return true;
}

}  // namespace d2stgnn::data
