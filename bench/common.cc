#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <optional>
#include <string_view>

#include "fleet/user_world.h"
#include "util/strings.h"

namespace simba::bench {

namespace {

[[noreturn]] void usage_error(const char* program, const std::string& usage,
                              const std::string& problem) {
  std::fprintf(stderr, "%s: %s\n%s\n", program, problem.c_str(),
               usage.c_str());
  std::exit(2);
}

/// The whole of `text` as a decimal in [0, max], or nullopt.
std::optional<std::uint64_t> parse_count(std::string_view text,
                                         std::uint64_t max) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (text.empty() || error != std::errc() || stop != end || value > max) {
    return std::nullopt;
  }
  return value;
}

/// The standard experiment config: the fleet config plus the paper's
/// other sources (Aladdin, WISH, the desktop assistant, the proxied
/// web sources, WSJ mail), the SmsFirst and ImOnly modes, and the
/// category aggregation the paper describes.
core::MabConfig standard_config(const std::string& owner,
                                const std::string& sms_address,
                                const std::string& email_address) {
  using namespace core;
  MabConfig config = fleet::fleet_config(owner, sms_address, email_address,
                                         /*storm_config=*/false);
  DeliveryMode sms_first("SmsFirst");
  sms_first.add_block(minutes(2)).actions.push_back(
      DeliveryAction{"Cell SMS", false});
  sms_first.add_block(minutes(2)).actions.push_back(
      DeliveryAction{"Home email", false});
  config.profile.define_mode(sms_first);
  DeliveryMode im_only("ImOnly");
  im_only.add_block(seconds(45)).actions.push_back(
      DeliveryAction{"MSN IM", true});
  config.profile.define_mode(im_only);

  for (const char* source :
       {"aladdin", "wish", "desktop.assistant", "alert.proxy.election",
        "alert.proxy.ps2", "alert.proxy.community"}) {
    config.classifier.add_rule(
        SourceRule{source, KeywordLocation::kNativeCategory, {}, ""});
  }
  config.classifier.add_rule(SourceRule{
      "wsj@news.example", KeywordLocation::kSubject, {"Financial news"}, ""});

  for (const auto& [keyword, category] :
       {std::pair{"Sensor ON", "Home Emergency"},
        {"Sensor DISARM", "Home Emergency"},
        {"Sensor ARM", "Home Emergency"},
        {"Sensor OFF", "Home Routine"},
        {"Sensor Broken", "Home Maintenance"},
        {"Location", "Tracking"},
        {"Important Email", "Work Urgent"},
        {"Reminder", "Work Urgent"},
        {"Election", "News"},
        {"PlayStation2", "Shopping"},
        {"Community Photos", "Friends"},
        {"Financial news", "Investment"}}) {
    config.categories.map_keyword(keyword, category);
  }

  for (const auto& [category, mode] :
       {std::pair{"Home Emergency", "Urgent"},
        {"Home Routine", "Casual"},
        {"Home Maintenance", "Casual"},
        {"Tracking", "Urgent"},
        {"Work Urgent", "SmsFirst"},
        {"Shopping", "Urgent"},
        {"Friends", "Casual"}}) {
    config.subscriptions.subscribe(category, owner, mode);
  }
  return config;
}

}  // namespace

Options Options::parse(int argc, char** argv,
                       std::initializer_list<std::string_view> accepted) {
  Options options;
  const char* program = argc > 0 ? argv[0] : "bench";
  const std::pair<std::string_view, int*> counts[] = {
      {"--n", &options.n},
      {"--users", &options.users},
      {"--threads", &options.threads},
      {"--epochs", &options.epochs},
      {"--checkpoint-every", &options.checkpoint_every}};
  const std::pair<std::string_view, std::string*> texts[] = {
      {"--trace-jsonl", &options.trace_jsonl},
      {"--json", &options.json},
      {"--checkpoint-path", &options.checkpoint_path},
      {"--resume-from", &options.resume_from}};
  const auto is_text = [&texts](std::string_view flag) {
    return std::any_of(std::begin(texts), std::end(texts),
                       [flag](const auto& text) { return text.first == flag; });
  };
  std::string usage = std::string("usage: ") + program + " [--seed N]";
  for (const std::string_view flag : accepted) {
    usage += " [" + std::string(flag);
    if (flag != "--stop-at-checkpoint") {
      usage += is_text(flag) ? " PATH" : " N";
    }
    usage += "]";
  }

  for (int i = 1; i < argc; ++i) {
    // "--flag=value" or "--flag value".
    std::string_view flag = argv[i];
    std::optional<std::string_view> value;
    if (const std::size_t eq = flag.find('='); eq != std::string_view::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    }
    if (flag != "--seed" &&
        std::find(accepted.begin(), accepted.end(), flag) == accepted.end()) {
      usage_error(program, usage, "unknown flag " + std::string(argv[i]));
    }
    if (flag == "--stop-at-checkpoint") {
      if (value) {
        usage_error(program, usage, "--stop-at-checkpoint takes no value");
      }
      options.stop_at_checkpoint = true;
      continue;
    }
    int* count = nullptr;
    std::string* text = nullptr;
    for (const auto& [name, field] : counts) {
      if (flag == name) count = field;
    }
    for (const auto& [name, field] : texts) {
      if (flag == name) text = field;
    }
    if (count == nullptr && text == nullptr && flag != "--seed") {
      usage_error(program, usage, "unknown flag " + std::string(argv[i]));
    }
    if (!value) {
      if (i + 1 == argc) {
        usage_error(program, usage, std::string(flag) + " needs a value");
      }
      value = argv[++i];
    }
    if (text != nullptr) {
      *text = *value;
      continue;
    }
    const std::optional<std::uint64_t> number = parse_count(
        *value, count != nullptr ? std::numeric_limits<int>::max()
                                 : std::numeric_limits<std::uint64_t>::max());
    if (!number) {
      usage_error(program, usage,
                  "bad value '" + std::string(*value) + "' for " +
                      std::string(flag));
    }
    if (count != nullptr) {
      *count = static_cast<int>(*number);
    } else {
      options.seed = *number;
    }
  }
  return options;
}

std::uint64_t peak_rss_bytes() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

void JsonReport::add(const std::string& key, double value) {
  fields_.emplace_back(key, strformat("%.6g", value));
}

void JsonReport::add(const std::string& key, std::int64_t value) {
  fields_.emplace_back(key, std::to_string(value));
}

void JsonReport::add(const std::string& key, std::uint64_t value) {
  fields_.emplace_back(key, std::to_string(value));
}

void JsonReport::add(const std::string& key, const std::string& value) {
  std::string quoted;
  quoted.reserve(value.size() + 2);
  quoted += '"';
  for (const char c : value) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += c;
  }
  quoted += '"';
  fields_.emplace_back(key, std::move(quoted));
}

std::string JsonReport::render() const {
  std::string out = "{\n";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    out += "  \"";
    out += fields_[i].first;
    out += "\": ";
    out += fields_[i].second;
    out += i + 1 < fields_.size() ? ",\n" : "\n";
  }
  out += "}\n";
  return out;
}

bool JsonReport::write_to(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  const std::string body = render();
  std::fwrite(body.data(), 1, body.size(), out);
  std::fclose(out);
  return true;
}

ExperimentWorld::ExperimentWorld(std::uint64_t seed)
    : sim(seed),
      bus(sim),
      im_server(sim, bus),
      email_server(sim),
      sms_gateway(sim, "sms.example.net") {
  fleet::apply_channel_models(fleet::ModelFidelity::kCalibrated, bus,
                              email_server, sms_gateway);
  sms_gateway.attach_to(email_server);
}

gui::FaultProfile buddy_im_client_profile() {
  gui::FaultProfile profile;
  // Hangs needing kill+restart: ~9/month (paper).
  profile.mean_time_to_hang = days(3.2);
  // MAB-terminating exceptions ride the pump fetches: the sweep runs
  // every 30 s (2880/day); 4.2e-4 gives ~1.2 MAB restarts/day => ~36
  // per month, the paper's count.
  profile.op_exception_probability = 4.1e-4;
  profile.exception_op = "fetch_unread";
  profile.leak_mb_per_hour = 3.0;
  // Dialogs the monkey knows how to dismiss. The two previously
  // unknown system dialogs of the paper's month are scripted by the
  // E6 bench as concrete incidents, not drawn from this pool.
  profile.mean_time_to_dialog = hours(8);
  profile.dialog_pool = {
      gui::DialogSpec{"Connection lost", "OK", 0.45, true, false},
      gui::DialogSpec{"Warning: low disk space", "OK", 0.30, false, false},
      gui::DialogSpec{"Update available", "Later", 0.20, false, false},
  };
  return profile;
}

gui::FaultProfile buddy_email_client_profile() {
  gui::FaultProfile profile;
  profile.mean_time_to_hang = days(12);
  profile.leak_mb_per_hour = 2.0;
  profile.mean_time_to_dialog = hours(30);
  profile.dialog_pool = {
      gui::DialogSpec{"Send/Receive error", "OK", 0.7, true, false},
      gui::DialogSpec{"Mailbox is full", "OK", 0.3, false, false},
  };
  return profile;
}

Cast::Cast(ExperimentWorld& world, core::MabHostOptions host_options,
           core::UserEndpointOptions user_options) {
  if (user_options.name == "user") user_options.name = "victor";
  if (user_options.ack_reaction_mean == seconds(8)) {
    user_options.ack_reaction_mean = seconds(5);
  }
  user = std::make_unique<core::UserEndpoint>(
      world.sim, world.bus, world.im_server, world.email_server,
      world.sms_gateway, user_options);
  user->start();

  host_options.owner = user_options.name;
  if (host_options.config.profile.user().empty()) {
    host_options.config = standard_config(
        user_options.name, user->sms_address(), user->email_account());
  }
  if (host_options.mab_options.processing_delay == Duration::zero() &&
      host_options.mab_options.leak_mb_per_hour == 0.0) {
    host_options.mab_options = fleet::calibrated_mab_options();
  }
  host = std::make_unique<core::MabHost>(world.sim, world.bus,
                                         world.im_server, world.email_server,
                                         std::move(host_options));
  host->start();
  world.sim.run_for(seconds(30));
}

std::unique_ptr<core::SourceEndpoint> Cast::make_source(
    ExperimentWorld& world, const std::string& name,
    Duration im_block_timeout) {
  core::SourceEndpointOptions options;
  options.name = name;
  options.im_block_timeout = im_block_timeout;
  auto source = std::make_unique<core::SourceEndpoint>(
      world.sim, world.bus, world.im_server, world.email_server, options);
  source->start();
  world.sim.run_for(seconds(10));
  source->set_target(host->im_address(), host->email_address());
  return source;
}

void print_header(const std::string& experiment_id,
                  const std::string& paper_claim) {
  std::printf("\n================================================================================\n");
  std::printf("%s\n", experiment_id.c_str());
  std::printf("Paper: %s\n", paper_claim.c_str());
  std::printf("================================================================================\n");
  std::printf("%-38s | %-22s | %s\n", "metric", "paper", "measured");
  std::printf("---------------------------------------+------------------------+----------------\n");
}

void print_row(const std::string& metric, const std::string& paper,
               const std::string& measured, const std::string& note) {
  std::printf("%-38s | %-22s | %s%s%s\n", metric.c_str(), paper.c_str(),
              measured.c_str(), note.empty() ? "" : "   # ", note.c_str());
}

void print_summary_seconds(const std::string& metric, const std::string& paper,
                           const Summary& summary) {
  print_row(metric, paper,
            strformat("mean=%.2fs p50=%.2fs p95=%.2fs (n=%zu)",
                      summary.mean(), summary.percentile(50),
                      summary.percentile(95), summary.count()));
}

void print_section(const std::string& title) {
  std::printf("\n--- %s ---\n", title.c_str());
}

}  // namespace simba::bench
