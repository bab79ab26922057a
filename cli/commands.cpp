#include "commands.hpp"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <ostream>
#include <sstream>

#include "args.hpp"
#include "attack/campaign.hpp"
#include "attack/finetune.hpp"
#include "core/error.hpp"
#include "core/metrics.hpp"
#include "core/threadpool.hpp"
#include "data/synthetic.hpp"
#include "hpnn/calibration.hpp"
#include "hpnn/keychain.hpp"
#include "hpnn/model_io.hpp"
#include "hpnn/owner.hpp"
#include "hpnn/zoo_store.hpp"
#include "hw/device.hpp"
#include "hw/fault.hpp"
#include "hw/overhead.hpp"
#include "nn/summary.hpp"
#include "nn/trainer.hpp"
#include "serve/chaos.hpp"
#include "serve/daemon/daemon.hpp"
#include "serve/fleet.hpp"
#include "serve/daemon/load_gen.hpp"
#include "serve/daemon/protocol.hpp"
#include "tensor/backend.hpp"

namespace hpnn::cli {

namespace {

data::SyntheticFamily family_from_name(const std::string& name) {
  if (name == "fashion") return data::SyntheticFamily::kFashionSynth;
  if (name == "cifar") return data::SyntheticFamily::kColorShapes;
  if (name == "svhn") return data::SyntheticFamily::kDigitSynth;
  throw Error("unknown dataset '" + name + "' (fashion | cifar | svhn)");
}

data::SplitDataset load_dataset(const Args& args) {
  if (args.has("train-file") || args.has("test-file")) {
    // Pre-exported dataset files (see the `dataset` command).
    data::SplitDataset split;
    split.train = data::load_dataset_file(args.require("train-file"));
    split.test = data::load_dataset_file(args.require("test-file"));
    return split;
  }
  data::SyntheticConfig dc;
  dc.train_per_class = args.get_int("tpc", 150);
  dc.test_per_class = args.get_int("testpc", 30);
  dc.image_size = args.get_int("img", 20);
  dc.seed = static_cast<std::uint64_t>(args.get_int("data-seed", 42));
  return data::make_dataset(family_from_name(args.require("dataset")), dc);
}

obf::SchedulePolicy policy_from_args(const Args& args);

/// Resolves the artifact source: --model FILE, or --zoo DIR --name N.
obf::PublishedModel load_artifact(const Args& args) {
  if (args.has("zoo")) {
    obf::ModelZoo zoo(args.require("zoo"));
    return zoo.fetch(args.require("name"));
  }
  return obf::read_published_model_file(args.require("model"));
}

int cmd_zoo(const Args& args, std::ostream& out) {
  const std::string dir = args.require("zoo");
  args.reject_unread();
  obf::ModelZoo zoo(dir);
  const auto entries = zoo.list();
  if (entries.empty()) {
    out << "zoo at " << zoo.directory() << " is empty\n";
    return 0;
  }
  for (const auto& entry : entries) {
    out << entry.name << "\t" << entry.file << "\tsha256:"
        << entry.digest_hex.substr(0, 16) << "...\n";
  }
  out << entries.size() << " name(s) -> " << zoo.object_count()
      << " content object(s)\n";
  return 0;
}

int cmd_provision(const Args& args, std::ostream& out) {
  const auto artifact = load_artifact(args);
  const obf::HpnnKey master = obf::HpnnKey::from_hex(args.require("key"));
  const std::string model_id = args.require("model-id");

  serve::FleetConfig config;
  config.devices = static_cast<std::size_t>(args.get_int("devices", 16));
  config.device.schedule_policy = policy_from_args(args);
  config.attest = args.get_int("attest", 1) != 0;
  const std::string* challenge_in = args.lookup("challenge");
  const auto probe_seed =
      static_cast<std::uint64_t>(args.get_int("probe-seed", 97));
  const std::int64_t probes = args.get_int("probes", 16);
  const std::string* challenge_out = args.lookup("challenge-out");
  const bool json = args.has("json");
  args.reject_unread();

  // The challenge either comes from the owner (--challenge FILE, the real
  // deployment shape: a vendor cannot forge a passing fleet with a wrong
  // master because the expectations were fixed by the true key), or is
  // synthesized here from the supplied master when this invocation *is*
  // the owner. --challenge-out saves a synthesized challenge for vendors.
  obf::AttestationChallenge challenge;
  if (challenge_in != nullptr) {
    std::ifstream is(*challenge_in, std::ios::binary);
    if (!is) {
      throw SerializationError("cannot open challenge file " + *challenge_in);
    }
    challenge = obf::read_challenge(is);
  } else {
    // Scheme-generic owner reference: the artifact's own LockScheme under
    // the derived per-model secrets (sign-lock or weight-stream alike).
    const obf::LockScheme& scheme =
        obf::scheme_by_tag(artifact.scheme_tag);
    const obf::SchemeSecrets secrets = obf::derive_scheme_secrets(
        master, model_id, config.device.schedule_policy);
    auto reference = scheme.make_evaluator(artifact, secrets);
    Rng probe_rng(probe_seed);
    challenge = obf::make_challenge(reference->network(),
                                    artifact.in_channels,
                                    artifact.image_size, probes, probe_rng);
    if (challenge_out != nullptr) {
      std::ofstream os(*challenge_out, std::ios::binary);
      obf::write_challenge(os, challenge);
      if (!os) {
        throw SerializationError("cannot write challenge file " +
                                 *challenge_out);
      }
      out << "challenge written to " << *challenge_out << "\n";
    }
  }

  out << "provisioning " << config.devices << " device(s) for model '"
      << model_id << "' (master fingerprint "
      << obf::key_fingerprint(master).substr(0, 16) << "...)\n";
  const serve::FleetReport report =
      serve::provision_fleet(master, model_id, artifact, challenge, config);
  out << "provisioned " << report.provisioned << "/" << config.devices
      << ", attested " << report.attested << "/" << config.devices
      << ", failed " << report.failed << "\n";
  out << "throughput: " << report.devices_per_second << " devices/s (wall "
      << report.wall_seconds << "s), model key fingerprint "
      << report.model_key_fingerprint.substr(0, 16) << "...\n";
  if (json) {
    serve::write_fleet_json(out, report);
    out << "\n";
  }
  if (!report.all_ok(config.attest)) {
    for (std::size_t i = 0; i < report.devices.size(); ++i) {
      if (!report.devices[i].error.empty()) {
        out << "device " << i << ": " << report.devices[i].error << "\n";
      }
    }
    throw KeyError("fleet provisioning incomplete: " +
                   std::to_string(report.failed) + " device(s) failed");
  }
  return 0;
}

int cmd_dataset(const Args& args, std::ostream& out) {
  const auto split = load_dataset(args);
  const std::string prefix = args.require("out");
  args.reject_unread();
  data::save_dataset_file(prefix + ".train.hpds", split.train);
  data::save_dataset_file(prefix + ".test.hpds", split.test);
  out << "wrote " << prefix << ".train.hpds (" << split.train.size()
      << " samples) and " << prefix << ".test.hpds (" << split.test.size()
      << " samples)\n";
  return 0;
}

obf::SchedulePolicy policy_from_args(const Args& args) {
  const std::string p = args.get("policy", "interleaved");
  if (p == "interleaved") return obf::SchedulePolicy::kInterleaved;
  if (p == "blocked") return obf::SchedulePolicy::kBlocked;
  throw Error("unknown schedule policy '" + p +
              "' (interleaved | blocked)");
}

models::ModelConfig model_config_for(const Args& args,
                                     const data::Dataset& train) {
  models::ModelConfig mc;
  mc.in_channels = train.channels();
  mc.image_size = train.height();
  mc.num_classes = train.num_classes;
  mc.init_seed = static_cast<std::uint64_t>(args.get_int("init-seed", 7));
  mc.width_mult = args.get_double("width", 1.0);
  return mc;
}

int cmd_keygen(const Args& args, std::ostream& out) {
  Rng rng(static_cast<std::uint64_t>(
      args.get_int("seed", 0x48504E4E)));
  const std::string* id_arg = args.lookup("model-id");
  args.reject_unread();
  const obf::HpnnKey key = obf::HpnnKey::random(rng);
  out << "key:         " << key.to_hex() << "\n";
  out << "fingerprint: " << obf::key_fingerprint(key) << "\n";
  if (id_arg != nullptr) {
    const std::string& id = *id_arg;
    const obf::HpnnKey sub = obf::derive_model_key(key, id);
    out << "model key (" << id << "): " << sub.to_hex() << "\n";
    out << "schedule seed (" << id
        << "): " << obf::derive_schedule_seed(key, id) << "\n";
  }
  return 0;
}

int cmd_train(const Args& args, std::ostream& out) {
  const auto split = load_dataset(args);
  obf::HpnnKey key = obf::HpnnKey::from_hex(args.require("key"));
  std::uint64_t schedule_seed =
      static_cast<std::uint64_t>(args.get_int("schedule-seed", 0xDAC));
  const std::string* model_id = args.lookup("model-id");
  const models::Architecture arch =
      models::arch_from_name(args.get("arch", "CNN1"));
  const obf::SchedulePolicy policy = policy_from_args(args);
  const models::ModelConfig config = model_config_for(args, split.train);
  obf::OwnerTrainOptions opt;
  opt.epochs = args.get_int("epochs", 8);
  opt.sgd.lr = args.get_double("lr", 0.01);
  opt.sgd.momentum = args.get_double("momentum", 0.9);
  opt.sgd.weight_decay = args.get_double("weight-decay", 5e-4);
  opt.batch_size = args.get_int("batch", 32);
  // The artifact goes to a zoo store (--zoo DIR --name N) or a file (--out).
  const std::string* zoo_dir = args.lookup("zoo");
  const std::string target = args.require(zoo_dir != nullptr ? "name" : "out");
  const bool static_quant = args.has("static-quant");
  args.reject_unread();

  if (model_id != nullptr) {
    // Master-key mode: diversify per model id.
    schedule_seed = obf::derive_schedule_seed(key, *model_id);
    key = obf::derive_model_key(key, *model_id);
    out << "derived model key for '" << *model_id
        << "', fingerprint: " << obf::key_fingerprint(key) << "\n";
  }
  obf::Scheduler scheduler(schedule_seed, policy);
  obf::LockedModel model(arch, config, key, scheduler);
  out << "training " << models::arch_name(arch) << " ("
      << model.locked_neuron_count() << " locked neurons) on "
      << split.train.name << "...\n";

  const auto report =
      obf::train_locked_model(model, split.train, split.test, opt);

  out << "train accuracy (with key): " << report.train_accuracy * 100
      << "%\n";
  out << "test accuracy  (with key): " << report.test_accuracy * 100
      << "%\n";
  const double nokey =
      obf::evaluate_without_key(model, key, scheduler, split.test);
  out << "test accuracy  (no key)  : " << nokey * 100 << "%\n";

  if (zoo_dir != nullptr) {
    // Publish straight into a zoo store instead of a bare file.
    obf::ModelZoo zoo(*zoo_dir);
    zoo.publish(target, model);
    out << "published '" << target << "' to zoo " << zoo.directory() << "\n";
    return 0;
  }
  const std::string& path = target;
  if (static_quant) {
    // Calibrate static int8 activation scales on (a slice of) the training
    // set and embed them in the artifact.
    const std::int64_t n =
        std::min<std::int64_t>(split.train.size(), 64);
    const std::int64_t sample =
        split.train.images.numel() / split.train.size();
    std::vector<std::int64_t> dims = split.train.images.shape().dims();
    dims[0] = n;
    const Tensor calib(Shape{dims},
                       std::vector<float>(split.train.images.data(),
                                          split.train.images.data() +
                                              n * sample));
    const auto scales = obf::calibrate_activation_scales(model, calib);
    std::ofstream os(path, std::ios::binary);
    if (!os) {
      throw Error("cannot open " + path + " for writing");
    }
    obf::publish_model(os, model, scales);
    out << "calibrated " << scales.size() << " static activation scales\n";
  } else {
    obf::publish_model_file(path, model);
  }
  out << "published artifact: " << path << "\n";
  return 0;
}

int cmd_eval(const Args& args, std::ostream& out) {
  const auto artifact =
      load_artifact(args);
  const auto split = load_dataset(args);
  const std::string* key_hex = args.lookup("key");
  const std::uint64_t schedule_seed =
      static_cast<std::uint64_t>(args.get_int("schedule-seed", 0xDAC));
  const bool on_device = args.has("device");
  const obf::SchedulePolicy policy = policy_from_args(args);
  args.reject_unread();
  if (key_hex != nullptr) {
    const obf::HpnnKey key = obf::HpnnKey::from_hex(*key_hex);
    if (on_device) {
      // Run on the trusted-device integer datapath.
      hw::DeviceConfig dev_cfg;
      dev_cfg.schedule_policy = policy;
      hw::TrustedDevice device(key, schedule_seed, dev_cfg);
      device.load_model(artifact);
      std::int64_t correct = 0;
      const std::int64_t n = split.test.size();
      const std::int64_t sample = split.test.images.numel() / n;
      for (std::int64_t at = 0; at < n; at += 64) {
        const std::int64_t count = std::min<std::int64_t>(64, n - at);
        std::vector<std::int64_t> dims = split.test.images.shape().dims();
        dims[0] = count;
        Tensor batch(Shape{dims},
                     std::vector<float>(
                         split.test.images.data() + at * sample,
                         split.test.images.data() + (at + count) * sample));
        const auto pred = device.classify(batch);
        for (std::int64_t i = 0; i < count; ++i) {
          correct += (pred[static_cast<std::size_t>(i)] ==
                      split.test.labels[static_cast<std::size_t>(at + i)]);
        }
      }
      out << "trusted-device accuracy: "
          << 100.0 * static_cast<double>(correct) / static_cast<double>(n)
          << "%\n";
      const auto& stats = device.mmu_stats();
      out << "mmu: " << stats.mac_ops << " MACs, " << stats.cycles
          << " cycles, " << stats.locked_outputs << " keyed outputs\n";
    } else {
      obf::Scheduler scheduler(schedule_seed, policy);
      auto model = obf::instantiate_locked(artifact, key, scheduler);
      out << "accuracy (with key): "
          << nn::evaluate_accuracy(model->network(), split.test.images,
                                   split.test.labels) *
                 100
          << "%\n";
    }
  } else {
    auto baseline = obf::instantiate_baseline(artifact);
    out << "accuracy (no key, attacker view): "
        << nn::evaluate_accuracy(*baseline, split.test.images,
                                 split.test.labels) *
               100
        << "%\n";
  }
  return 0;
}

int cmd_attack(const Args& args, std::ostream& out) {
  const auto artifact =
      load_artifact(args);
  const auto split = load_dataset(args);
  const double alpha = args.get_double("alpha", 0.10);
  Rng thief_rng(static_cast<std::uint64_t>(args.get_int("thief-seed", 2)));
  const data::Dataset thief =
      data::thief_subset(split.train, alpha, thief_rng);

  attack::FineTuneOptions opt;
  opt.epochs = args.get_int("epochs", 80);
  opt.sgd.lr = args.get_double("lr", 0.01);
  opt.sgd.momentum = args.get_double("momentum", 0.9);
  opt.sgd.weight_decay = args.get_double("weight-decay", 5e-4);
  const std::string init = args.get("init", "stolen");
  const attack::InitStrategy strategy =
      init == "random" ? attack::InitStrategy::kRandomSmall
                       : attack::InitStrategy::kStolenWeights;
  args.reject_unread();

  out << "fine-tuning attack (" << attack::init_strategy_name(strategy)
      << ") with " << thief.size() << " thief samples (alpha = "
      << alpha * 100 << "%)...\n";
  const auto report =
      attack::finetune_attack(artifact, thief, split.test, strategy, opt);
  out << "attack accuracy: final " << report.final_accuracy * 100
      << "%, best " << report.best_accuracy * 100 << "%\n";
  return 0;
}

/// Parses a comma-separated list of names ("sign-lock,weight-stream").
std::vector<std::string> parse_name_list(const std::string& csv) {
  std::vector<std::string> names;
  std::string token;
  std::istringstream ss(csv);
  while (std::getline(ss, token, ',')) {
    if (!token.empty()) {
      names.push_back(token);
    }
  }
  return names;
}

/// Parses "1,4,16" into attack budgets.
std::vector<std::int64_t> parse_budget_list(const std::string& csv) {
  std::vector<std::int64_t> budgets;
  std::string token;
  std::istringstream ss(csv);
  while (std::getline(ss, token, ',')) {
    try {
      std::size_t consumed = 0;
      const long long v = std::stoll(token, &consumed);
      if (consumed != token.size() || v <= 0) {
        throw Error("");
      }
      budgets.push_back(v);
    } catch (const std::exception&) {
      throw UsageError("bad --budgets entry '" + token +
                       "' (expected positive integers)");
    }
  }
  if (budgets.empty()) {
    throw UsageError("--budgets must list at least one budget");
  }
  return budgets;
}

int cmd_defend_bench(const Args& args, std::ostream& out) {
  const auto split = load_dataset(args);

  attack::DefenseCampaignOptions opt;
  opt.arch = models::arch_from_name(args.get("arch", "CNN1"));
  opt.thief_alpha = args.get_double("alpha", 0.25);
  opt.owner_epochs = args.get_int("epochs", 6);
  opt.batch_size = args.get_int("batch", 32);
  opt.lr = args.get_double("lr", 0.01);
  opt.oracle_samples = args.get_int("oracle-samples", 128);
  opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 2020));
  opt.init_seed = static_cast<std::uint64_t>(args.get_int("init-seed", 7));
  if (args.has("schemes")) {
    opt.schemes = parse_name_list(args.require("schemes"));
  }
  if (args.has("attacks")) {
    opt.attacks = parse_name_list(args.require("attacks"));
  }
  if (args.has("budgets")) {
    opt.budgets = parse_budget_list(args.require("budgets"));
  }
  const std::string json_path = args.get("json-out", "BENCH_defense.json");
  const bool json = args.has("json");
  args.reject_unread();

  out << "defense benchmark: " << models::arch_name(opt.arch) << ", "
      << (opt.schemes.empty() ? obf::registered_scheme_tags().size()
                              : opt.schemes.size())
      << " scheme(s) x " << opt.attacks.size() << " attack(s) x "
      << opt.budgets.size() << " budget(s)\n";
  const attack::DefenseCampaignReport report =
      attack::run_defense_campaign(split, opt);

  out << "chance accuracy: " << report.chance_accuracy * 100
      << "%, thief set " << report.thief_size << " samples\n";
  for (const auto& b : report.baselines) {
    out << "scheme " << b.scheme << ": protected "
        << b.protected_accuracy * 100 << "%, no key "
        << b.no_key_accuracy * 100 << "%, locked neurons "
        << b.locked_neurons << "\n";
  }
  out << "scheme          attack        budget  attacker-acc  work\n";
  for (const auto& c : report.cells) {
    out << c.scheme << std::string(16 - std::min<std::size_t>(
                                            16, c.scheme.size()), ' ')
        << c.attack << std::string(14 - std::min<std::size_t>(
                                            14, c.attack.size()), ' ')
        << c.budget << "\t" << c.attacker_accuracy * 100 << "%\t"
        << c.work << "\n";
  }

  if (json_path != "-") {
    std::ofstream os(json_path);
    if (!os) {
      throw SerializationError("cannot write " + json_path);
    }
    attack::write_defense_json(os, report);
    out << "curves written to " << json_path << "\n";
  }
  if (json) {
    attack::write_defense_json(out, report);
  }
  return 0;
}

int cmd_inspect(const Args& args, std::ostream& out) {
  const auto artifact = load_artifact(args);
  const bool tensors = args.has("tensors");
  const bool summary = args.has("summary");
  args.reject_unread();
  out << "architecture: " << models::arch_name(artifact.arch) << "\n";
  out << "input:        " << artifact.in_channels << "x"
      << artifact.image_size << "x" << artifact.image_size << "\n";
  out << "classes:      " << artifact.num_classes << "\n";
  out << "width mult:   " << artifact.width_mult << "\n";
  out << "lock scheme:  " << artifact.scheme_tag << " ("
      << obf::scheme_by_tag(artifact.scheme_tag).description() << ", "
      << artifact.scheme_payload.size() << "-byte payload)\n";
  std::int64_t total = 0;
  for (const auto& p : artifact.parameters) {
    total += p.value.numel();
  }
  out << "parameters:   " << total << " in " << artifact.parameters.size()
      << " tensors\n";
  out << "buffers:      " << artifact.buffers.size() << "\n";
  if (!artifact.activation_scales.empty()) {
    out << "static quant:  " << artifact.activation_scales.size()
        << " calibrated activation scales\n";
  }
  if (tensors) {
    for (const auto& p : artifact.parameters) {
      out << "  " << p.name << " " << p.value.shape().to_string() << "\n";
    }
  }
  if (summary) {
    auto net = obf::instantiate_baseline(artifact);
    out << nn::summary_table(*net);
  }
  return 0;
}

/// Parses "0,1,2,4,8" into bit counts for the key-SEU campaign.
std::vector<std::size_t> parse_bit_counts(const std::string& csv) {
  std::vector<std::size_t> counts;
  std::string token;
  std::istringstream ss(csv);
  while (std::getline(ss, token, ',')) {
    try {
      std::size_t consumed = 0;
      const unsigned long v = std::stoul(token, &consumed);
      if (consumed != token.size() || v > obf::HpnnKey::kBits) {
        throw Error("");
      }
      counts.push_back(v);
    } catch (const std::exception&) {
      throw Error("bad --bits entry '" + token +
                  "' (expected integers 0.." +
                  std::to_string(obf::HpnnKey::kBits) + ")");
    }
  }
  if (counts.empty()) {
    throw Error("--bits must list at least one flip count");
  }
  return counts;
}

int cmd_fault_campaign(const Args& args, std::ostream& out) {
  const auto artifact = load_artifact(args);
  const auto split = load_dataset(args);
  const obf::HpnnKey key = obf::HpnnKey::from_hex(args.require("key"));
  const std::uint64_t schedule_seed =
      static_cast<std::uint64_t>(args.get_int("schedule-seed", 0xDAC));
  hw::DeviceConfig dev_cfg;
  dev_cfg.schedule_policy = policy_from_args(args);

  const auto bit_counts = parse_bit_counts(args.get("bits", "0,1,2,4,8"));
  const int trials = static_cast<int>(args.get_int("trials", 3));
  const auto campaign_seed =
      static_cast<std::uint64_t>(args.get_int("campaign-seed", 1));
  const double acc_rate = args.get_double("acc-rate", 0.0);
  const int acc_bit = static_cast<int>(
      args.get_int("acc-bit", hw::FaultPlan{}.accumulator_bit));
  const double scale_err = args.get_double("scale-error", 0.0);
  const bool json = args.has("json");
  args.reject_unread();

  const auto baseline = hw::run_fault_trial(
      key, schedule_seed, artifact, split.test.images, split.test.labels,
      hw::FaultPlan{}, dev_cfg);
  out << "trusted-device baseline accuracy: " << baseline.accuracy * 100
      << "%\n";

  const auto points = hw::run_key_flip_campaign(
      key, schedule_seed, artifact, split.test.images, split.test.labels,
      bit_counts, trials, campaign_seed, dev_cfg);
  out << "flipped-bits  raw-mean  raw-min  served  detected\n";
  for (const auto& p : points) {
    out << p.bits_flipped << "\t" << p.mean_accuracy * 100 << "%\t"
        << p.min_accuracy * 100 << "%\t" << p.mean_served_accuracy * 100
        << "%\t" << p.detection_rate * 100 << "%\n";
  }

  if (acc_rate > 0.0) {
    hw::FaultPlan plan;
    plan.accumulator_flip_rate = acc_rate;
    plan.accumulator_bit = acc_bit;
    plan.seed = campaign_seed;
    const auto trial = hw::run_fault_trial(
        key, schedule_seed, artifact, split.test.images, split.test.labels,
        plan, dev_cfg);
    out << "accumulator faults (rate " << acc_rate << ", bit "
        << plan.accumulator_bit << "): accuracy " << trial.accuracy * 100
        << "%, " << trial.stats.accumulator_faults << " flips\n";
  }
  if (scale_err != 0.0) {
    hw::FaultPlan plan;
    plan.scale_relative_error = scale_err;
    const auto trial = hw::run_fault_trial(
        key, schedule_seed, artifact, split.test.images, split.test.labels,
        plan, dev_cfg);
    out << "scale corruption (rel. error " << scale_err << "): accuracy "
        << trial.accuracy * 100 << "%\n";
  }

  if (json) {
    hw::write_campaign_json(out, models::arch_name(artifact.arch),
                            baseline.accuracy, points);
    out << "\n";
  }
  return 0;
}

serve::DegradationPolicy degradation_from_name(const std::string& name) {
  if (name == "fail_closed") return serve::DegradationPolicy::kFailClosed;
  if (name == "degrade_to_subset") {
    return serve::DegradationPolicy::kDegradeToSubset;
  }
  if (name == "reject_with_retry_after") {
    return serve::DegradationPolicy::kRejectWithRetryAfter;
  }
  throw Error("unknown degradation policy '" + name +
              "' (fail_closed | degrade_to_subset | reject_with_retry_after)");
}

serve::VerifyMode verify_from_name(const std::string& name) {
  if (name == "none") return serve::VerifyMode::kNone;
  if (name == "echo") return serve::VerifyMode::kEcho;
  if (name == "digest") return serve::VerifyMode::kDigest;
  if (name == "witness") return serve::VerifyMode::kWitness;
  throw Error("unknown verify mode '" + name +
              "' (none | echo | digest | witness)");
}

/// Shared daemon/load knobs for serve, serve-load and serve-sim
/// --offered-qps mode. The service model's defaults (55us + 42us/row, so
/// ~20k rows/s in 8-row batches) are fitted to perfbench's traced
/// witness-verified service times (bench/README.md).
serve::LoadScenario load_scenario_from_args(const Args& args) {
  serve::LoadScenario scenario;
  scenario.offered_qps = args.get_double("offered-qps", 4'000.0);
  scenario.requests = static_cast<int>(args.get_int("requests", 400));
  scenario.batch = args.get_int("batch", 1);
  scenario.tenants = static_cast<int>(args.get_int("tenants", 4));
  scenario.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  scenario.burst = static_cast<int>(args.get_int("burst", 1));
  scenario.key_seu_rate = args.get_double("key-seu-rate", 0.0);
  scenario.quarantine_at_request =
      static_cast<int>(args.get_int("quarantine-at", -1));
  scenario.config.replicas =
      static_cast<std::size_t>(args.get_int("replicas", 4));
  scenario.config.retry.max_attempts =
      static_cast<int>(args.get_int("max-attempts", 4));
  scenario.config.degradation =
      degradation_from_name(args.get("degradation", "degrade_to_subset"));
  scenario.config.verify = verify_from_name(args.get("verify", "digest"));
  scenario.daemon.batcher.max_batch_rows = args.get_int("max-batch", 8);
  scenario.daemon.batcher.slo_p99_us =
      static_cast<std::uint64_t>(args.get_int("slo-us", 20'000));
  scenario.daemon.queue.capacity =
      static_cast<std::size_t>(args.get_int("queue-capacity", 64));
  scenario.daemon.queue.max_queue_wait_us =
      static_cast<std::uint64_t>(args.get_int("max-queue-wait-us", 0));
  scenario.daemon.admission.high_watermark =
      static_cast<std::size_t>(args.get_int("high-watermark", 48));
  scenario.daemon.admission.low_watermark =
      static_cast<std::size_t>(args.get_int("low-watermark", 24));
  scenario.daemon.admission.per_tenant.tokens_per_sec =
      args.get_double("tenant-qps", 0.0);
  scenario.daemon.admission.per_tenant.burst =
      args.get_double("tenant-burst", 8.0);
  scenario.daemon.sessions.capacity =
      static_cast<std::size_t>(args.get_int("session-capacity", 64));
  scenario.daemon.sim_service_base_us =
      static_cast<std::uint64_t>(args.get_int("service-base-us", 55));
  scenario.daemon.sim_service_per_row_us =
      static_cast<std::uint64_t>(args.get_int("service-per-row-us", 42));
  return scenario;
}

void print_load_report(std::ostream& out, const serve::LoadScenario& scenario,
                       const serve::LoadReport& report) {
  out << "offered " << report.offered << " requests @ "
      << scenario.offered_qps << " qps (burst " << scenario.burst
      << ", sustainable ~" << serve::sustainable_qps(scenario) << " qps)\n";
  out << "accepted " << report.accepted << ", completed " << report.completed
      << ", shed " << report.shed << ", queue-full " << report.queue_full
      << ", expired " << report.expired << ", failed " << report.failed
      << ", wrong " << report.wrong << "\n";
  out << "latency us p50/p99/max: " << report.p50_latency_us << "/"
      << report.p99_latency_us << "/" << report.max_latency_us
      << "; queue wait us p50/p99: " << report.p50_queue_wait_us << "/"
      << report.p99_queue_wait_us << "\n";
  out << "retry-after hints us: [" << report.min_retry_after_us << ", "
      << report.max_retry_after_us << "]; batches " << report.daemon.batches
      << ", quarantines " << report.pool.quarantines << ", re-provisions "
      << report.pool.reprovisions << "\n";
}

int cmd_serve_load(const Args& args, std::ostream& out) {
  const auto bundle = serve::make_chaos_model(
      static_cast<std::uint64_t>(args.get_int("model-seed", 33)), 16, 0.6,
      /*with_logit_digest=*/true);
  serve::LoadScenario scenario = load_scenario_from_args(args);
  const bool json = args.has("json");

  // Sweep offered load, default 0.5x / 1x / 2x of sustainable.
  std::vector<double> sweep;
  if (args.has("qps-list")) {
    std::stringstream ss(args.require("qps-list"));
    std::string token;
    while (std::getline(ss, token, ',')) {
      sweep.push_back(std::stod(token));
    }
  } else if (args.has("offered-qps")) {
    sweep.push_back(scenario.offered_qps);
  } else {
    const double cap = serve::sustainable_qps(scenario);
    sweep = {0.5 * cap, 1.0 * cap, 2.0 * cap};
  }
  args.reject_unread();

  int wrong = 0;
  for (const double qps : sweep) {
    scenario.offered_qps = qps;
    const serve::LoadReport report =
        serve::run_load_scenario(bundle, scenario);
    out << "--- offered " << qps << " qps ---\n";
    print_load_report(out, scenario, report);
    if (json) {
      serve::write_overload_json(out, scenario, report);
      out << "\n";
    }
    wrong += report.wrong;
  }
  if (wrong > 0) {
    out << "FAIL: " << wrong << " served batches differed from the "
        << "un-faulted reference\n";
    return 1;
  }
  return 0;
}

int cmd_serve(const Args& args, std::ostream& out) {
  const bool sim = args.get_int("sim", 1) != 0;
  const auto workers = static_cast<std::size_t>(args.get_int("workers", 2));
  std::ifstream script;
  std::istream* in = &std::cin;
  if (args.has("script")) {
    const std::string path = args.require("script");
    script.open(path);
    if (!script) {
      throw Error("cannot open script file '" + path + "'");
    }
    in = &script;
  }
  const auto bundle = serve::make_chaos_model(
      static_cast<std::uint64_t>(args.get_int("model-seed", 33)), 16, 0.6,
      /*with_logit_digest=*/true);
  serve::LoadScenario defaults = load_scenario_from_args(args);
  args.reject_unread();

  core::SimulatedClock sim_clock(0);
  serve::SupervisorConfig config = defaults.config;
  if (sim) {
    config.clock = &sim_clock;
  }
  serve::ServingSupervisor supervisor(bundle.master, bundle.model_id,
                                      bundle.artifact, bundle.challenge,
                                      config);
  serve::DaemonConfig dconfig = defaults.daemon;
  if (sim) {
    dconfig.workers = 0;  // pump mode: the protocol loop drives the clock
  } else {
    dconfig.workers = workers;
    dconfig.sim_service_base_us = 0;  // real inference is the service time
    dconfig.sim_service_per_row_us = 0;
  }
  serve::ServeDaemon daemon(supervisor, bundle.master, bundle.model_id,
                            dconfig);
  daemon.start();

  out << "READY model=" << bundle.model_id << " replicas="
      << config.replicas << " mode=" << (sim ? "sim" : "real")
      << " workers=" << dconfig.workers << "\n";

  bool drained = false;
  std::string line;
  while (std::getline(*in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    serve::ProtoRequest request;
    try {
      request = serve::parse_request(line);
    } catch (const Error& e) {
      out << serve::format_error(0, "protocol", 0, e.what()) << "\n";
      continue;
    }
    if (request.kind == serve::ProtoRequest::Kind::kInfer) {
      Rng rng(request.seed);
      Tensor images = Tensor::normal(
          Shape{request.n, bundle.artifact.in_channels,
                bundle.artifact.image_size, bundle.artifact.image_size},
          rng, 0.0f, 0.25f);
      try {
        const serve::Reply reply =
            daemon.submit(request.tenant, std::move(images));
        out << serve::format_reply(request.id, reply) << "\n";
      } catch (...) {
        out << serve::format_exception(request.id, std::current_exception())
            << "\n";
      }
    } else if (request.kind == serve::ProtoRequest::Kind::kStats) {
      out << serve::format_stats(daemon.stats()) << "\n";
    } else if (request.kind == serve::ProtoRequest::Kind::kReload) {
      try {
        const auto reloaded = serve::apply_reload(request, dconfig);
        daemon.reload(reloaded);
        dconfig = reloaded;
        out << "OK reload\n";
      } catch (const std::exception& e) {
        out << serve::format_error(0, "reload", 0, e.what()) << "\n";
      }
    } else if (request.kind == serve::ProtoRequest::Kind::kDrain) {
      daemon.drain();
      drained = true;
      out << "OK drained\n";
    } else if (request.kind == serve::ProtoRequest::Kind::kQuit) {
      out << "OK bye\n";
      break;
    }
  }
  if (!drained) {
    daemon.drain();
  }
  out << serve::format_stats(daemon.stats()) << "\n";
  return 0;
}

int cmd_serve_sim(const Args& args, std::ostream& out) {
  const bool json = args.has("json");
  if (args.has("offered-qps") || args.has("burst")) {
    // Overload mode: open-loop offered load against the serving daemon
    // instead of the serial chaos campaign.
    const auto bundle = serve::make_chaos_model(
        static_cast<std::uint64_t>(args.get_int("model-seed", 33)), 16, 0.6,
        /*with_logit_digest=*/true);
    const serve::LoadScenario scenario = load_scenario_from_args(args);
    args.reject_unread();
    const serve::LoadReport report =
        serve::run_load_scenario(bundle, scenario);
    print_load_report(out, scenario, report);
    if (json) {
      serve::write_overload_json(out, scenario, report);
      out << "\n";
    }
    if (report.wrong > 0) {
      out << "FAIL: " << report.wrong << " served batches differed from "
          << "the un-faulted reference\n";
      return 1;
    }
    return 0;
  }

  serve::ChaosScenario scenario;
  scenario.requests = static_cast<int>(args.get_int("requests", 40));
  scenario.batch = args.get_int("batch", 2);
  scenario.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  scenario.key_seu_rate = args.get_double("key-seu-rate", 0.1);
  scenario.config.replicas =
      static_cast<std::size_t>(args.get_int("replicas", 4));
  scenario.config.retry.max_attempts =
      static_cast<int>(args.get_int("max-attempts", 4));
  scenario.config.default_deadline_us =
      static_cast<std::uint64_t>(args.get_int("deadline-us", 0));
  scenario.config.degradation =
      degradation_from_name(args.get("degradation", "degrade_to_subset"));
  scenario.config.verify = verify_from_name(args.get("verify", "witness"));

  const double acc_rate = args.get_double("acc-rate", 0.0);
  if (acc_rate > 0.0 && scenario.config.replicas >= 2) {
    // Transient accumulator faults on replica 1 from first provisioning;
    // replacement hardware after re-provisioning is clean.
    scenario.plans.resize(2);
    hw::FaultPlan plan;
    plan.accumulator_flip_rate = acc_rate;
    plan.seed = scenario.seed + 17;
    scenario.plans[1].initial = plan;
  }

  const auto bundle = serve::make_chaos_model(
      static_cast<std::uint64_t>(args.get_int("model-seed", 33)));
  args.reject_unread();
  out << "serve-sim: " << scenario.config.replicas << " replicas, "
      << scenario.requests << " requests, key SEU rate "
      << scenario.key_seu_rate << ", "
      << serve::degradation_policy_name(scenario.config.degradation)
      << ", verify " << serve::verify_mode_name(scenario.config.verify)
      << "\n";
  const serve::ChaosReport report =
      serve::run_chaos_scenario(bundle, scenario);
  out << "served " << report.succeeded << "/" << report.requests
      << " requests (" << report.wrong << " wrong, " << report.timeouts
      << " timeouts, " << report.unavailable << " unavailable, "
      << report.retry_exhausted << " retry-exhausted)\n";
  out << "faults:   " << report.seus_injected << " key SEUs injected, "
      << report.pool.quarantines << " quarantines, "
      << report.pool.reprovisions << " re-provisions, "
      << report.pool.probes << " probes\n";
  out << "attempts: " << report.attempts << " total (" << report.retries
      << " retries), " << report.degraded << " degraded successes\n";
  if (json) {
    serve::write_chaos_json(out, scenario, report);
    out << "\n";
  }
  if (report.wrong > 0) {
    out << "FAIL: " << report.wrong << " served predictions differed from "
        << "the un-faulted reference\n";
    return 1;
  }
  return 0;
}

int cmd_backends(const Args& args, std::ostream& out) {
  args.reject_unread();
  // Listing must not force resolution side effects beyond registration:
  // report the active backend exactly as the next kernel call would see it.
  const std::string active = ops::backend().name();
  for (const auto& name : ops::backend_names()) {
    const core::ComputeBackend* be = ops::find_backend(name);
    out << (name == active ? "* " : "  ") << name;
    if (!be->supported()) {
      out << " (unsupported on this CPU)";
    }
    out << "\n      " << be->description() << "\n";
  }
  out << "\nselection: --backend > HPNN_BACKEND > auto-pick\n";
  return 0;
}

int cmd_overhead(const Args& args, std::ostream& out) {
  const std::int64_t dim = args.get_int("dim", 256);
  args.reject_unread();
  const auto report = hw::mmu_overhead(dim);
  out << report.to_string() << "\n";
  out << "overhead vs 1e6-gate reference MMU: "
      << report.overhead_vs_reference(1000000) * 100 << "%\n";
  return 0;
}

}  // namespace

std::string usage() {
  return
      "hpnn — Hardware Protected Neural Network toolkit (DAC 2020 repro)\n"
      "\n"
      "commands:\n"
      "  keygen   [--seed N] [--model-id ID]          generate an HPNN key\n"
      "  dataset  --dataset D --out PREFIX            export .hpds files\n"
      "  zoo      --zoo DIR                           list a model-zoo store\n"
      "  provision --zoo DIR --name N | --model FILE\n"
      "           --key HEX --model-id ID [--devices N --probes N\n"
      "            --attest 0|1 --json 1\n"
      "            --challenge FILE | --challenge-out FILE]\n"
      "                                               attest a device fleet\n"
      "                                               off one master key\n"
      "  train    --arch A --dataset D --key HEX --out FILE\n"
      "           [--model-id ID --schedule-seed N --policy P --epochs E\n"
      "            --lr LR --img S --tpc N --width W --static-quant 1]\n"
      "                                               key-dependent training\n"
      "  eval     --model FILE --dataset D [--key HEX [--device 1]]\n"
      "                                               evaluate an artifact\n"
      "  attack   --model FILE --dataset D [--alpha F --init stolen|random]\n"
      "                                               fine-tuning attack\n"
      "  defend-bench --dataset D [--schemes T,T --attacks A,A\n"
      "           --budgets 1,4,16 --arch A --alpha F --epochs E\n"
      "           --oracle-samples N --seed S --json-out FILE --json 1]\n"
      "                                               scheme x attack x budget\n"
      "                                               curves (BENCH_defense)\n"
      "  inspect  --model FILE [--tensors 1]          describe an artifact\n"
      "  backends                                     list compute backends\n"
      "                                               (* marks the active one)\n"
      "  overhead [--dim N]                           locking hardware cost\n"
      "  fault-campaign --model FILE --dataset D --key HEX\n"
      "           [--bits 0,1,2,4,8 --trials N --campaign-seed N\n"
      "            --acc-rate F --acc-bit B --scale-error F --json 1]\n"
      "                                               SEU fault injection\n"
      "  serve-sim [--requests N --batch B --seed S --key-seu-rate F\n"
      "            --replicas N --max-attempts N --deadline-us N\n"
      "            --degradation P --verify M --acc-rate F\n"
      "            --model-seed N --json 1]\n"
      "                                               chaos-test a replicated\n"
      "                                               serving pool\n"
      "           [--offered-qps Q --burst B]         overload mode: open-\n"
      "                                               loop load against the\n"
      "                                               serving daemon\n"
      "  serve    [--sim 1 --workers N --script FILE --replicas N\n"
      "            --verify M --max-batch N --slo-us N --queue-capacity N\n"
      "            --high-watermark N --low-watermark N --tenant-qps F]\n"
      "                                               line-protocol daemon\n"
      "                                               (INFER/STATS/RELOAD/\n"
      "                                                DRAIN/QUIT on stdin)\n"
      "  serve-load [--qps-list A,B,C | --offered-qps Q] [--requests N\n"
      "            --burst B --tenants N --slo-us N --json 1]\n"
      "                                               offered-load sweep,\n"
      "                                               default 0.5x/1x/2x of\n"
      "                                               sustainable capacity\n"
      "\n"
      "datasets: fashion | cifar | svhn (synthetic stand-ins), or\n"
      "          --train-file F --test-file F (exported .hpds files)\n"
      "artifacts: --model FILE, or --zoo DIR --name N (train publishes to\n"
      "           the zoo when --zoo is given)\n"
      "architectures: CNN1 CNN2 CNN3 ResNet18 MLP LeNet5\n"
      "\n"
      "global options:\n"
      "  --threads N   worker-pool size for GEMM/conv/campaign loops\n"
      "                (default: HPNN_THREADS env var, else all cores;\n"
      "                 results are bit-identical at any setting)\n"
      "  --metrics-out PATH   write a metrics snapshot after the command\n"
      "                (.csv extension selects CSV, otherwise JSON;\n"
      "                 disable collection with HPNN_METRICS=off)\n"
      "  --backend B   compute backend: scalar | avx2 | avx512 (see\n"
      "                `hpnn backends`; default: HPNN_BACKEND env var, else\n"
      "                the best tier this CPU supports; unknown or\n"
      "                unsupported names fail closed with exit code 2, as\n"
      "                does a set HPNN_SIMD: use HPNN_BACKEND=scalar)\n"
      "\n"
      "exit codes:\n"
      "  0 success          1 command failed       2 usage error\n"
      "  3 bad artifact/data  4 key/integrity error  5 deadline exceeded\n"
      "  6 no device available  7 retries exhausted\n"
      "  8 admission rejected (retry_after hint printed)  9 queue full\n";
}

namespace {

int dispatch(const Args& args, std::ostream& out) {
  if (args.command == "keygen") return cmd_keygen(args, out);
  if (args.command == "dataset") return cmd_dataset(args, out);
  if (args.command == "zoo") return cmd_zoo(args, out);
  if (args.command == "provision") return cmd_provision(args, out);
  if (args.command == "train") return cmd_train(args, out);
  if (args.command == "eval") return cmd_eval(args, out);
  if (args.command == "attack") return cmd_attack(args, out);
  if (args.command == "defend-bench") return cmd_defend_bench(args, out);
  if (args.command == "inspect") return cmd_inspect(args, out);
  if (args.command == "backends") return cmd_backends(args, out);
  if (args.command == "overhead") return cmd_overhead(args, out);
  if (args.command == "fault-campaign") {
    return cmd_fault_campaign(args, out);
  }
  if (args.command == "serve-sim") return cmd_serve_sim(args, out);
  if (args.command == "serve") return cmd_serve(args, out);
  if (args.command == "serve-load") return cmd_serve_load(args, out);
  out << "unknown command '" << args.command << "'\n\n" << usage();
  return 2;
}

}  // namespace

int run_command(const std::vector<std::string>& tokens, std::ostream& out) {
  try {
    const Args args = parse_args(tokens);
    if (args.has("threads")) {
      // Global option: overrides HPNN_THREADS for this invocation.
      const std::int64_t threads = args.get_int("threads", 0);
      HPNN_CHECK(threads >= 1, "--threads must be >= 1");
      core::set_thread_count(static_cast<int>(threads));
    }
    if (args.has("backend")) {
      // Global option: overrides HPNN_BACKEND for this invocation. Fails
      // closed (UsageError -> exit 2) on unknown or unsupported names
      // before any kernel runs.
      ops::set_backend(args.require("backend"));
    }
    if (args.command.empty() || args.command == "help") {
      out << usage();
      return args.command.empty() ? 2 : 0;
    }
    // Read before dispatch, so commands that reject unread options see it.
    const bool write_metrics = args.has("metrics-out");
    const int rc = dispatch(args, out);
    if (write_metrics) {
      // Global option: snapshot whatever the command recorded, even on a
      // nonzero exit — a failed run's partial counters are still useful.
      const std::string path = args.require("metrics-out");
      if (!metrics::enabled()) {
        out << "warning: --metrics-out given but metrics are disabled\n";
      } else if (metrics::write_snapshot_file(path)) {
        out << "metrics snapshot: " << path << "\n";
      }
    }
    return rc;
  } catch (const UsageError& e) {
    out << "error: " << e.what() << "\n";
    return 2;
  } catch (const SerializationError& e) {
    out << "error: " << e.what() << "\n";
    return 3;
  } catch (const KeyError& e) {
    out << "error: " << e.what() << "\n";
    return 4;
  } catch (const TimeoutError& e) {
    out << "error: " << e.what() << "\n";
    return 5;
  } catch (const DeviceUnavailableError& e) {
    out << "error: " << e.what() << "\n";
    return 6;
  } catch (const RetryExhaustedError& e) {
    out << "error: " << e.what() << "\n";
    return 7;
  } catch (const AdmissionRejectedError& e) {
    out << "error: " << e.what() << "\n";
    return 8;
  } catch (const QueueFullError& e) {
    out << "error: " << e.what() << "\n";
    return 9;
  } catch (const Error& e) {
    out << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace hpnn::cli
