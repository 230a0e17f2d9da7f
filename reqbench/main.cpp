// reqbench: runs one request-path workload and writes its raw result.
//
//   reqbench --workload NAME --seed N --seconds S --trace 0|1 --out FILE
//            --tmp-dir DIR [--workerd PATH] [--git-commit SHA]
//
// Workloads: warm_service, cold_service, async_teams, fleet_bsp. run.py
// builds this binary and turns the raw result into the benchmark's metrics;
// see README.md in this directory.

#include <filesystem>
#include <iostream>
#include <stdexcept>

#include "reqbench.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace reqbench;
  try {
    asyncmg::Cli cli(argc, argv);
    Args args;
    args.workload = cli.get("workload", "");
    args.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    args.seconds = std::stod(cli.get("seconds", "10"));
    args.trace = cli.get_int("trace", 0) != 0;
    args.out = cli.get("out", "");
    args.tmp_dir = cli.get("tmp-dir", "");
    args.workerd = cli.get("workerd", "");
    args.git_commit = cli.get("git-commit", "unknown");
    if (args.out.empty() || args.tmp_dir.empty() || !(args.seconds > 0.0)) {
      std::cerr << "reqbench: --out, --tmp-dir and --seconds > 0 are required\n";
      return 2;
    }
    std::filesystem::create_directories(args.tmp_dir);

    Result r;
    r.workload = args.workload;
    r.seed = args.seed;
    r.trace = args.trace;
    fill_host(r, args);
    if (args.workload == "warm_service") {
      run_warm_service(args, r);
    } else if (args.workload == "cold_service") {
      run_cold_service(args, r);
    } else if (args.workload == "async_teams") {
      run_async_teams(args, r);
    } else if (args.workload == "fleet_bsp") {
      if (args.workerd.empty()) {
        std::cerr << "reqbench: fleet_bsp needs --workerd\n";
        return 2;
      }
      run_fleet_bsp(args, r);
    } else {
      std::cerr << "reqbench: unknown workload '" << args.workload << "'\n";
      return 2;
    }
    if (r.peak_rss_mb == 0.0) r.peak_rss_mb = peak_rss_self_mb();
    if (args.trace) {
      double array_bytes = 0.0;
      r.layer["host.stream_gbps"] =
          measure_stream_gbps(r.host_numbers["llc_bytes"], &array_bytes);
      r.host_numbers["stream_array_bytes"] = array_bytes;
    }
    write_result(r, args.out);
  } catch (const std::exception& e) {
    std::cerr << "reqbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
