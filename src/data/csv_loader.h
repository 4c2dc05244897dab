#ifndef D2STGNN_DATA_CSV_LOADER_H_
#define D2STGNN_DATA_CSV_LOADER_H_

#include <string>

#include "data/dataset.h"

namespace d2stgnn::data {

/// Options for LoadCsvDataset.
struct CsvDatasetOptions {
  std::string name = "csv";
  /// Sampling slots per day (288 for 5-minute data).
  int64_t steps_per_day = 288;
  /// Day of week of the first row (0 = Monday).
  int64_t start_day_of_week = 0;
  /// True for flow datasets (PEMS04/08-style), false for speed.
  bool is_flow = false;
};

/// Loads a traffic dataset from two CSV files, the format the public
/// METR-LA / PEMS exports are commonly distributed in:
///
///  * `readings_path`  — one row per time step, one comma-separated column
///    per sensor (an optional header row is skipped automatically);
///  * `distances_path` — directed road distances as `from,to,distance`
///    rows with 0-based sensor indices (header rows are skipped).
///
/// The adjacency is built with the thresholded Gaussian kernel at DCRNN's
/// threshold 0.1, the one the synthetic generator uses (paper Sec. 6.1).
/// Returns false (after logging) on I/O or parse errors; the project does
/// not use exceptions.
bool LoadCsvDataset(const std::string& readings_path,
                    const std::string& distances_path,
                    const CsvDatasetOptions& options, TimeSeriesDataset* out);

/// Writes a dataset back to the same two-file CSV format (useful for
/// exporting synthetic datasets to other toolchains and for round-trip
/// tests). Unreachable pairs are omitted from the distance file.
bool SaveCsvDataset(const TimeSeriesDataset& dataset,
                    const std::string& readings_path,
                    const std::string& distances_path);

}  // namespace d2stgnn::data

#endif  // D2STGNN_DATA_CSV_LOADER_H_
