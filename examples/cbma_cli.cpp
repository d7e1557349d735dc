// cbma_cli — run a custom CBMA scenario from the command line.
//
//   cbma_cli [--tags N] [--radius M] [--distance M] [--packets P]
//            [--family gold|2nc] [--bitrate MBPS] [--power DBM]
//            [--payload BYTES] [--pc] [--wifi] [--bluetooth] [--ofdm]
//            [--multipath] [--probe PATH] [--cells N] [--profile] [--seed S]
//
// Tags are placed on a ring of the given radius centred `--distance`
// metres from the receiver side of the paper frame. Reports per-tag SNR,
// delivery and the aggregate FER/goodput, optionally after Algorithm 1.
//
// With `--cells N` the CLI switches to the net:: multi-cell layer: an
// N x N gateway grid over 6 m x 4 m bays, `--tags` tags per cell, shared
// 64-code family sliced by the spatial-reuse scheduler. Ring geometry and
// the probe/interferer flags do not apply in that mode.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "core/observability.h"
#include "core/system.h"
#include "mac/throughput.h"
#include "net/network.h"
#include "util/parallel.h"
#include "util/probe.h"
#include "util/table.h"
#include "util/telemetry.h"
#include "util/units.h"

using namespace cbma;

namespace {

struct CliOptions {
  std::size_t tags = 4;
  double radius_m = 0.25;
  double distance_m = 0.75;
  std::size_t packets = 200;
  pn::CodeFamily family = pn::CodeFamily::kTwoNC;
  double bitrate_mbps = 1.0;
  double power_dbm = 20.0;
  std::size_t payload = 8;
  bool power_control = false;
  bool wifi = false;
  bool bluetooth = false;
  bool ofdm = false;
  bool multipath = false;
  std::string probe;  ///< signal-probe dump path ("" = probing off)
  std::size_t cells = 0;  ///< cells per side (0 = single-cell ring mode)
  bool profile = false;   ///< print the top-10 exclusive-time table
  std::uint64_t seed = 1;
};

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --tags N         concurrent tags (default 4)\n"
      "  --radius M       tag ring radius in metres (default 0.25)\n"
      "  --distance M     ring centre offset from origin (default 0.75)\n"
      "  --packets P      collided packets to send (default 200)\n"
      "  --family F       gold | 2nc (default 2nc)\n"
      "  --bitrate R      per-tag bit rate in Mbps (default 1)\n"
      "  --power P        excitation power in dBm (default 20)\n"
      "  --payload B      payload bytes per frame (default 8)\n"
      "  --pc             run Algorithm 1 power control first\n"
      "  --wifi           add a WiFi interferer\n"
      "  --bluetooth      add a Bluetooth interferer\n"
      "  --ofdm           use an intermittent OFDM excitation source\n"
      "  --multipath      enable Rician multipath echoes\n"
      "  --probe PATH     capture signal probes to PATH (+ PATH.json manifest)\n"
      "  --cells N        multi-cell mode: N x N gateway grid, --tags tags per\n"
      "                   cell, spatial code reuse over a shared 64-code family\n"
      "  --profile        profile the run and print the top-10 caller paths by\n"
      "                   exclusive time (see also CBMA_PROFILE=PATH)\n"
      "  --seed S         RNG seed (default 1)\n",
      argv0);
}

bool parse(int argc, char** argv, CliOptions& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return false;
    } else if (arg == "--tags") {
      const char* v = need_value("--tags");
      if (!v) return false;
      opt.tags = static_cast<std::size_t>(std::atol(v));
    } else if (arg == "--radius") {
      const char* v = need_value("--radius");
      if (!v) return false;
      opt.radius_m = std::atof(v);
    } else if (arg == "--distance") {
      const char* v = need_value("--distance");
      if (!v) return false;
      opt.distance_m = std::atof(v);
    } else if (arg == "--packets") {
      const char* v = need_value("--packets");
      if (!v) return false;
      opt.packets = static_cast<std::size_t>(std::atol(v));
    } else if (arg == "--family") {
      const char* v = need_value("--family");
      if (!v) return false;
      if (std::strcmp(v, "gold") == 0) {
        opt.family = pn::CodeFamily::kGold;
      } else if (std::strcmp(v, "2nc") == 0) {
        opt.family = pn::CodeFamily::kTwoNC;
      } else {
        std::fprintf(stderr, "unknown code family '%s'\n", v);
        return false;
      }
    } else if (arg == "--bitrate") {
      const char* v = need_value("--bitrate");
      if (!v) return false;
      opt.bitrate_mbps = std::atof(v);
    } else if (arg == "--power") {
      const char* v = need_value("--power");
      if (!v) return false;
      opt.power_dbm = std::atof(v);
    } else if (arg == "--payload") {
      const char* v = need_value("--payload");
      if (!v) return false;
      opt.payload = static_cast<std::size_t>(std::atol(v));
    } else if (arg == "--probe") {
      const char* v = need_value("--probe");
      if (!v) return false;
      opt.probe = v;
    } else if (arg == "--cells") {
      const char* v = need_value("--cells");
      if (!v) return false;
      opt.cells = static_cast<std::size_t>(std::atol(v));
    } else if (arg == "--seed") {
      const char* v = need_value("--seed");
      if (!v) return false;
      opt.seed = static_cast<std::uint64_t>(std::atoll(v));
    } else if (arg == "--profile") {
      opt.profile = true;
    } else if (arg == "--pc") {
      opt.power_control = true;
    } else if (arg == "--wifi") {
      opt.wifi = true;
    } else if (arg == "--bluetooth") {
      opt.bluetooth = true;
    } else if (arg == "--ofdm") {
      opt.ofdm = true;
    } else if (arg == "--multipath") {
      opt.multipath = true;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage(argv[0]);
      return false;
    }
  }
  return true;
}

// Whenever the span recorder is on (--profile, or any variable that arms
// it): where did the time go — top-10 caller paths by exclusive time out of
// the recorder's attribution tree. The flamegraph file that
// CBMA_PROFILE=<path> asks for is written with the other artifacts.
void print_profile_report() {
  if (!telemetry::enabled()) return;
  const auto rows =
      core::top_exclusive(telemetry::snapshot().tree, 10);
  Table table({"caller path", "count", "incl ms", "excl ms"});
  for (const auto& row : rows) {
    table.add_row({row.path, std::to_string(row.count),
                   Table::num(static_cast<double>(row.incl_ns) / 1e6, 3),
                   Table::num(static_cast<double>(row.excl_ns) / 1e6, 3)});
  }
  std::printf("\nprofile (top 10 by exclusive time):\n%s\n",
              table.render().c_str());
}

// Multi-cell mode (`--cells N`): the net:: layer over an N x N bay grid.
int run_multicell(const CliOptions& opt) {
  constexpr double kBayWidth = 6.0;
  constexpr double kBayHeight = 4.0;
  constexpr std::size_t kRounds = 3;

  net::NetworkConfig cfg;
  cfg.cell.max_tags = opt.tags;
  cfg.cell.code_family = opt.family;
  cfg.cell.code_min_length = opt.family == pn::CodeFamily::kGold ? 31 : 20;
  cfg.cell.bitrate_bps = opt.bitrate_mbps * 1e6;
  cfg.cell.tx_power_dbm = opt.power_dbm;
  cfg.cell.payload_bytes = opt.payload;
  cfg.cell.multipath.enabled = opt.multipath;
  cfg.packets_per_round = opt.packets;

  const auto side = opt.cells;
  auto network = net::Network::grid(cfg,
                                    kBayWidth * static_cast<double>(side),
                                    kBayHeight * static_cast<double>(side),
                                    side, side);
  Rng rng(opt.seed);
  network.place_random_tags(side * side * opt.tags, rng);

  std::printf("scenario: %s\n", network.config().cell.summary().c_str());
  std::printf("%zux%zu gateway grid over %.0fm x %.0fm, %zu tags, "
              "%zu reuse colors; %zu packets/cell/round; seed %llu\n\n",
              side, side, kBayWidth * static_cast<double>(side),
              kBayHeight * static_cast<double>(side), network.tag_count(),
              network.colors_used(), opt.packets,
              static_cast<unsigned long long>(opt.seed));

  net::NetworkRoundResult result;
  std::size_t roamed = 0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    result = network.run_round(util::point_seed(opt.seed, 100 + round));
    roamed += result.roamed;
  }

  Table table({"cell", "color", "codes", "tags", "FER", "goodput Mbps",
               "intercell dBm"});
  for (const auto& cell : result.cells) {
    const auto& gw = network.gateways()[cell.gateway_id];
    table.add_row(
        {std::to_string(cell.gateway_id), std::to_string(gw.color),
         "[" + std::to_string(gw.code_offset) + "," +
             std::to_string(gw.code_offset + gw.code_count) + ")",
         std::to_string(cell.tags_served) + "/" +
             std::to_string(cell.tags_total),
         cell.stats.total_sent() > 0
             ? Table::percent(cell.stats.frame_error_rate(), 1)
             : "-",
         Table::num(cell.goodput_bps / 1e6, 2),
         Table::num(cell.interference_dbm, 1)});
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("tags served        : %zu/%zu\n", result.tags_served,
              result.tags_total);
  std::printf("tags roamed        : %zu (over %zu rounds)\n", roamed, kRounds);
  std::printf("aggregate goodput  : %.2f Mbps\n",
              result.aggregate_goodput_bps / 1e6);
  std::printf("Jain fairness      : %.3f\n", result.jain_fairness);
  print_profile_report();
  return core::write_observability_artifacts() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  if (!parse(argc, argv, opt)) return 1;
  if (opt.tags < 1 || opt.packets < 1) {
    std::fprintf(stderr, "--tags and --packets must be positive\n");
    return 1;
  }
  if (opt.profile) telemetry::set_enabled(true);
  if (opt.cells > 0) {
    try {
      return run_multicell(opt);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "multi-cell setup failed: %s\n", e.what());
      return 1;
    }
  }

  // --probe is the programmatic CBMA_PROBE; without it probing stays as the
  // environment set it (off by default: strict identity).
  if (!opt.probe.empty()) {
    probe::set_dump_path(opt.probe);
    probe::set_enabled(true);
  }

  core::SystemConfig config;
  config.max_tags = opt.tags;
  config.code_family = opt.family;
  config.code_min_length = opt.family == pn::CodeFamily::kGold ? 31 : 20;
  config.bitrate_bps = opt.bitrate_mbps * 1e6;
  config.tx_power_dbm = opt.power_dbm;
  config.payload_bytes = opt.payload;
  config.multipath.enabled = opt.multipath;

  auto deployment = rfsim::Deployment::paper_frame();
  for (std::size_t k = 0; k < opt.tags; ++k) {
    const double angle = 2.0 * units::kPi * static_cast<double>(k) /
                         static_cast<double>(opt.tags);
    deployment.add_tag({opt.radius_m * std::cos(angle),
                        opt.distance_m + opt.radius_m * std::sin(angle)});
  }

  core::CbmaSystem system(config, deployment);
  if (opt.wifi) {
    system.add_interferer(
        std::make_unique<rfsim::WifiInterferer>(units::dbm_to_watts(-58.0)));
  }
  if (opt.bluetooth) {
    system.add_interferer(
        std::make_unique<rfsim::BluetoothInterferer>(units::dbm_to_watts(-55.0)));
  }
  if (opt.ofdm) {
    system.set_excitation(std::make_unique<rfsim::OfdmExcitation>(500e-6, 700e-6));
  }

  std::printf("scenario: %s\n", config.summary().c_str());
  std::printf("%zu tags on a %.2fm ring at %.2fm; %zu packets; seed %llu\n\n",
              opt.tags, opt.radius_m, opt.distance_m, opt.packets,
              static_cast<unsigned long long>(opt.seed));

  Rng rng(opt.seed);
  if (opt.power_control) {
    const auto outcome = system.run_power_control({}, 40, rng);
    std::printf("power control: %zu adjustment rounds%s\n\n", outcome.rounds,
                outcome.exhausted ? " (cycle cap reached)" : "");
  }

  const auto stats = system.run_packets(opt.packets, rng);
  const auto ratios = stats.ack_ratios();

  Table table({"tag", "SNR (dB)", "impedance level", "delivered"});
  for (std::size_t k = 0; k < opt.tags; ++k) {
    table.add_row({std::to_string(k), Table::num(system.snr_db(k), 1),
                   std::to_string(system.impedance_level(k)),
                   Table::percent(ratios[k], 1)});
  }
  std::printf("%s\n", table.render().c_str());

  mac::CbmaRate rate;
  rate.per_tag_bitrate_bps = config.bitrate_bps;
  rate.n_tags = opt.tags;
  rate.frame_bits = phy::frame_bit_count(config.payload_bytes);
  rate.payload_bits = config.payload_bytes * 8;
  rate.frame_error_rate = stats.frame_error_rate();
  const auto rates = mac::cbma_throughput(rate);

  std::printf("group FER          : %.2f%%\n", 100.0 * stats.frame_error_rate());
  std::printf("aggregate raw rate : %.2f Mbps\n", rates.aggregate_raw_bps / 1e6);
  std::printf("aggregate goodput  : %.2f Mbps\n", rates.aggregate_goodput_bps / 1e6);

  if (probe::enabled()) {
    std::printf("probe dump         : %s (+ .json manifest)\n",
                probe::dump_path().c_str());
  }
  print_profile_report();
  return core::write_observability_artifacts() ? 0 : 1;
}
