#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "args.hpp"
#include "commands.hpp"
#include "core/error.hpp"

namespace hpnn::cli {
namespace {

int run(const std::vector<std::string>& tokens, std::string& output) {
  std::ostringstream os;
  const int rc = run_command(tokens, os);
  output = os.str();
  return rc;
}

// ---------------------------------------------------------------- args

TEST(ArgsTest, ParsesCommandFlagsAndPositionals) {
  const Args args = parse_args(
      {"train", "--epochs", "5", "--lr=0.01", "extra1", "extra2"});
  EXPECT_EQ(args.command, "train");
  EXPECT_EQ(args.get_int("epochs", 0), 5);
  EXPECT_EQ(args.get_double("lr", 0.0), 0.01);
  EXPECT_EQ(args.positional,
            (std::vector<std::string>{"extra1", "extra2"}));
}

TEST(ArgsTest, MissingValueThrows) {
  EXPECT_THROW(parse_args({"train", "--epochs"}), Error);
}

TEST(ArgsTest, RequireThrowsWithFlagName) {
  const Args args = parse_args({"train"});
  try {
    (void)args.require("out");
    FAIL();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--out"), std::string::npos);
  }
}

TEST(ArgsTest, MalformedNumbersThrow) {
  const Args args = parse_args({"x", "--n", "12abc", "--f", "1.5x"});
  EXPECT_THROW(args.get_int("n", 0), Error);
  EXPECT_THROW(args.get_double("f", 0.0), Error);
}

TEST(ArgsTest, EmptyTokensGiveEmptyCommand) {
  EXPECT_TRUE(parse_args({}).command.empty());
}

// ---------------------------------------------------------------- commands

// Exit codes follow the error taxonomy: 1 generic, 2 usage, 3 bad
// artifact/data, 4 key/integrity, 5 timeout, 6 unavailable, 7 retries
// exhausted. The tests below pin the mapping so scripts can rely on it.
TEST(CliTest, NoCommandPrintsUsageAndFails) {
  std::string out;
  EXPECT_EQ(run({}, out), 2);
  EXPECT_NE(out.find("commands:"), std::string::npos);
}

TEST(CliTest, HelpSucceeds) {
  std::string out;
  EXPECT_EQ(run({"help"}, out), 0);
  EXPECT_NE(out.find("keygen"), std::string::npos);
}

TEST(CliTest, UnknownCommandFails) {
  std::string out;
  EXPECT_EQ(run({"frobnicate"}, out), 2);
  EXPECT_NE(out.find("unknown command"), std::string::npos);
}

TEST(CliTest, KeygenIsDeterministicPerSeed) {
  std::string a, b, c;
  EXPECT_EQ(run({"keygen", "--seed", "5"}, a), 0);
  EXPECT_EQ(run({"keygen", "--seed", "5"}, b), 0);
  EXPECT_EQ(run({"keygen", "--seed", "6"}, c), 0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a.find("fingerprint:"), std::string::npos);
}

TEST(CliTest, KeygenWithModelIdDerivesSubkey) {
  std::string out;
  EXPECT_EQ(run({"keygen", "--seed", "5", "--model-id", "m1"}, out), 0);
  EXPECT_NE(out.find("model key (m1):"), std::string::npos);
  EXPECT_NE(out.find("schedule seed (m1):"), std::string::npos);
}

TEST(CliTest, OverheadReportsXorGates) {
  std::string out;
  EXPECT_EQ(run({"overhead"}, out), 0);
  EXPECT_NE(out.find("4096"), std::string::npos);
}

TEST(CliTest, TrainEvalAttackInspectRoundTrip) {
  // Tiny end-to-end run through the CLI surface (kept fast: 12x12 images,
  // 20 samples/class, 2 epochs).
  const std::string key(64, 'a');
  const std::string model_path = ::testing::TempDir() + "/cli_model.hpnn";
  const std::vector<std::string> common = {
      "--dataset", "fashion", "--img", "16", "--tpc", "20",
      "--testpc",  "10"};

  std::vector<std::string> train_cmd = {
      "train", "--arch", "CNN1", "--key", key, "--out", model_path,
      "--epochs", "2"};
  train_cmd.insert(train_cmd.end(), common.begin(), common.end());
  std::string out;
  ASSERT_EQ(run(train_cmd, out), 0) << out;
  EXPECT_NE(out.find("published artifact"), std::string::npos);

  std::vector<std::string> inspect_cmd = {"inspect", "--model", model_path};
  ASSERT_EQ(run(inspect_cmd, out), 0) << out;
  EXPECT_NE(out.find("architecture: CNN1"), std::string::npos);

  std::vector<std::string> eval_keyed = {"eval", "--model", model_path,
                                         "--key", key};
  eval_keyed.insert(eval_keyed.end(), common.begin(), common.end());
  ASSERT_EQ(run(eval_keyed, out), 0) << out;
  EXPECT_NE(out.find("with key"), std::string::npos);

  std::vector<std::string> eval_nokey = {"eval", "--model", model_path};
  eval_nokey.insert(eval_nokey.end(), common.begin(), common.end());
  ASSERT_EQ(run(eval_nokey, out), 0) << out;
  EXPECT_NE(out.find("no key"), std::string::npos);

  std::vector<std::string> eval_device = {
      "eval", "--model", model_path, "--key", key, "--device", "1"};
  eval_device.insert(eval_device.end(), common.begin(), common.end());
  ASSERT_EQ(run(eval_device, out), 0) << out;
  EXPECT_NE(out.find("trusted-device accuracy"), std::string::npos);

  std::vector<std::string> attack_cmd = {
      "attack", "--model", model_path, "--alpha", "0.2", "--epochs", "2"};
  attack_cmd.insert(attack_cmd.end(), common.begin(), common.end());
  ASSERT_EQ(run(attack_cmd, out), 0) << out;
  EXPECT_NE(out.find("attack accuracy"), std::string::npos);
}

TEST(CliTest, DefendBenchEmitsCurvesAndJson) {
  // Smoke-scale defend-bench: one budget, tiny MLP, all registered schemes
  // and attacks; the JSON curve file must land where --json-out points.
  const std::string json_path =
      ::testing::TempDir() + "/cli_bench_defense.json";
  std::string out;
  ASSERT_EQ(run({"defend-bench", "--dataset", "fashion", "--arch", "MLP",
                 "--img", "12", "--tpc", "6", "--testpc", "3", "--epochs",
                 "1", "--budgets", "1", "--oracle-samples", "16",
                 "--json-out", json_path, "--json", "1"},
                out),
            0)
      << out;
  EXPECT_NE(out.find("defense benchmark"), std::string::npos);
  EXPECT_NE(out.find("scheme sign-lock"), std::string::npos);
  EXPECT_NE(out.find("scheme weight-stream"), std::string::npos);
  EXPECT_NE(out.find("\"bench\":\"defense\""), std::string::npos);

  std::ifstream is(json_path);
  ASSERT_TRUE(is.good()) << "defend-bench did not write " << json_path;
  std::string json;
  std::getline(is, json);
  EXPECT_EQ(json.find("{\"bench\":\"defense\""), 0u);
  EXPECT_NE(json.find("\"curves\":["), std::string::npos);
}

TEST(CliTest, DefendBenchRejectsBadLists) {
  std::string out;
  EXPECT_EQ(run({"defend-bench", "--dataset", "fashion", "--img", "12",
                 "--tpc", "6", "--testpc", "3", "--budgets", "0"},
                out),
            2);
  EXPECT_EQ(run({"defend-bench", "--dataset", "fashion", "--img", "12",
                 "--tpc", "6", "--testpc", "3", "--budgets", "nope"},
                out),
            2);
}

TEST(CliTest, InspectPrintsLockScheme) {
  const std::string key(64, 'b');
  const std::string model_path =
      ::testing::TempDir() + "/cli_scheme_model.hpnn";
  std::string out;
  ASSERT_EQ(run({"train", "--arch", "MLP", "--key", key, "--out",
                 model_path, "--epochs", "1", "--dataset", "fashion",
                 "--img", "12", "--tpc", "4", "--testpc", "2"},
                out),
            0)
      << out;
  ASSERT_EQ(run({"inspect", "--model", model_path}, out), 0) << out;
  EXPECT_NE(out.find("lock scheme:  sign-lock"), std::string::npos);
}

TEST(CliTest, DatasetExportAndReuse) {
  const std::string prefix = ::testing::TempDir() + "/cli_ds";
  std::string out;
  ASSERT_EQ(run({"dataset", "--dataset", "svhn", "--out", prefix, "--tpc",
                 "5", "--testpc", "3", "--img", "16"},
                out),
            0)
      << out;
  EXPECT_NE(out.find(".train.hpds"), std::string::npos);

  // Train against the exported files instead of regenerating.
  const std::string key(64, 'b');
  const std::string model_path = ::testing::TempDir() + "/cli_ds_model.hpnn";
  ASSERT_EQ(run({"train", "--arch", "CNN3", "--width", "0.5", "--key", key,
                 "--out", model_path, "--epochs", "1", "--train-file",
                 prefix + ".train.hpds", "--test-file",
                 prefix + ".test.hpds"},
                out),
            0)
      << out;
  EXPECT_NE(out.find("published artifact"), std::string::npos);
}

TEST(CliTest, StaticQuantTrainEmbedsScales) {
  const std::string key(64, 'c');
  const std::string model_path =
      ::testing::TempDir() + "/cli_sq_model.hpnn";
  std::string out;
  ASSERT_EQ(run({"train", "--arch", "CNN1", "--dataset", "fashion", "--key",
                 key, "--out", model_path, "--epochs", "1", "--img", "16",
                 "--tpc", "10", "--testpc", "5", "--static-quant", "1"},
                out),
            0)
      << out;
  EXPECT_NE(out.find("static activation scales"), std::string::npos);
}

TEST(CliTest, BlockedPolicyRoundTripsThroughCli) {
  const std::string key(64, 'd');
  const std::string model_path =
      ::testing::TempDir() + "/cli_policy_model.hpnn";
  const std::vector<std::string> common = {
      "--dataset", "fashion", "--img", "16", "--tpc", "20",
      "--testpc",  "10",      "--policy", "blocked"};
  std::vector<std::string> train_cmd = {
      "train", "--arch", "CNN1", "--key", key, "--out", model_path,
      "--epochs", "1"};
  train_cmd.insert(train_cmd.end(), common.begin(), common.end());
  std::string out;
  ASSERT_EQ(run(train_cmd, out), 0) << out;

  std::vector<std::string> eval_cmd = {"eval", "--model", model_path,
                                       "--key", key};
  eval_cmd.insert(eval_cmd.end(), common.begin(), common.end());
  ASSERT_EQ(run(eval_cmd, out), 0) << out;
  EXPECT_NE(out.find("with key"), std::string::npos);

  EXPECT_EQ(run({"train", "--arch", "CNN1", "--dataset", "fashion",
                 "--key", key, "--out", model_path, "--policy", "zigzag"},
                out),
            1);
}

TEST(CliTest, InspectSummaryPrintsLayerTable) {
  const std::string key(64, 'e');
  const std::string model_path =
      ::testing::TempDir() + "/cli_summary_model.hpnn";
  std::string out;
  ASSERT_EQ(run({"train", "--arch", "LeNet5", "--dataset", "fashion",
                 "--key", key, "--out", model_path, "--epochs", "1",
                 "--img", "16", "--tpc", "10", "--testpc", "5"},
                out),
            0)
      << out;
  ASSERT_EQ(
      run({"inspect", "--model", model_path, "--summary", "1"}, out), 0)
      << out;
  EXPECT_NE(out.find("Conv2d"), std::string::npos);
  EXPECT_NE(out.find("total parameters:"), std::string::npos);
}

TEST(CliTest, ZooPublishListEvalFlow) {
  const std::string zoo_dir = ::testing::TempDir() + "/cli_zoo_store";
  std::filesystem::remove_all(zoo_dir);
  const std::string key(64, 'f');
  const std::vector<std::string> common = {
      "--dataset", "fashion", "--img", "16", "--tpc", "15",
      "--testpc",  "5"};

  std::vector<std::string> train_cmd = {
      "train", "--arch", "CNN1", "--key", key, "--zoo", zoo_dir,
      "--name", "fashion-v1", "--epochs", "1"};
  train_cmd.insert(train_cmd.end(), common.begin(), common.end());
  std::string out;
  ASSERT_EQ(run(train_cmd, out), 0) << out;
  EXPECT_NE(out.find("published 'fashion-v1' to zoo"), std::string::npos);

  ASSERT_EQ(run({"zoo", "--zoo", zoo_dir}, out), 0) << out;
  EXPECT_NE(out.find("fashion-v1"), std::string::npos);
  EXPECT_NE(out.find("sha256:"), std::string::npos);

  std::vector<std::string> eval_cmd = {"eval", "--zoo", zoo_dir, "--name",
                                       "fashion-v1", "--key", key};
  eval_cmd.insert(eval_cmd.end(), common.begin(), common.end());
  ASSERT_EQ(run(eval_cmd, out), 0) << out;
  EXPECT_NE(out.find("with key"), std::string::npos);

  EXPECT_EQ(run({"eval", "--zoo", zoo_dir, "--name", "ghost", "--dataset",
                 "fashion"},
                out),
            3);
}

TEST(CliTest, ProvisionFleetFromZoo) {
  const std::string zoo_dir = ::testing::TempDir() + "/cli_provision_zoo";
  std::filesystem::remove_all(zoo_dir);
  const std::string key(64, 'a');

  std::string out;
  ASSERT_EQ(run({"train", "--arch", "CNN1", "--key", key, "--zoo", zoo_dir,
                 "--name", "prov-v1", "--epochs", "1", "--dataset",
                 "fashion", "--img", "16", "--tpc", "15", "--testpc", "5"},
                out),
            0)
      << out;

  ASSERT_EQ(run({"provision", "--zoo", zoo_dir, "--name", "prov-v1",
                 "--key", key, "--model-id", "prov-v1", "--devices", "3",
                 "--probes", "8", "--json", "1"},
                out),
            0)
      << out;
  EXPECT_NE(out.find("provisioned 3/3"), std::string::npos);
  EXPECT_NE(out.find("attested 3/3"), std::string::npos);
  EXPECT_NE(out.find("\"fleet\":{"), std::string::npos);

  // Missing required flags is a usage error.
  EXPECT_EQ(run({"provision", "--zoo", zoo_dir, "--name", "prov-v1",
                 "--key", key},
                out),
            2);

  // The deployment shape: the owner records a challenge; a vendor holding
  // the wrong master key cannot attest a fleet against it (exit 4), while
  // the true master replays it cleanly.
  const std::string challenge_path =
      ::testing::TempDir() + "/cli_provision_challenge.bin";
  ASSERT_EQ(run({"provision", "--zoo", zoo_dir, "--name", "prov-v1",
                 "--key", key, "--model-id", "prov-v1", "--devices", "1",
                 "--probes", "8", "--challenge-out", challenge_path},
                out),
            0)
      << out;
  ASSERT_EQ(run({"provision", "--zoo", zoo_dir, "--name", "prov-v1",
                 "--key", key, "--model-id", "prov-v1", "--devices", "2",
                 "--probes", "8", "--challenge", challenge_path},
                out),
            0)
      << out;
  const std::string wrong_key(64, 'b');
  EXPECT_EQ(run({"provision", "--zoo", zoo_dir, "--name", "prov-v1",
                 "--key", wrong_key, "--model-id", "prov-v1", "--devices",
                 "2", "--probes", "8", "--challenge", challenge_path},
                out),
            4)
      << out;
  EXPECT_NE(out.find("attestation failed"), std::string::npos);
}

TEST(CliTest, FaultCampaignReportsCurveAndJson) {
  const std::string key(64, '1');
  const std::string model_path =
      ::testing::TempDir() + "/cli_fault_model.hpnn";
  const std::vector<std::string> common = {
      "--dataset", "fashion", "--img", "16", "--tpc", "20",
      "--testpc",  "10"};

  std::vector<std::string> train_cmd = {
      "train", "--arch", "CNN1", "--key", key, "--out", model_path,
      "--epochs", "1"};
  train_cmd.insert(train_cmd.end(), common.begin(), common.end());
  std::string out;
  ASSERT_EQ(run(train_cmd, out), 0) << out;

  std::vector<std::string> campaign_cmd = {
      "fault-campaign", "--model", model_path, "--key", key,
      "--bits", "0,1", "--trials", "1", "--scale-error", "1.0",
      "--json", "1"};
  campaign_cmd.insert(campaign_cmd.end(), common.begin(), common.end());
  ASSERT_EQ(run(campaign_cmd, out), 0) << out;
  EXPECT_NE(out.find("baseline accuracy"), std::string::npos);
  EXPECT_NE(out.find("flipped-bits"), std::string::npos);
  EXPECT_NE(out.find("scale corruption"), std::string::npos);
  EXPECT_NE(out.find("\"bench\":\"fault_campaign\""), std::string::npos);

  std::vector<std::string> bad_bits = {
      "fault-campaign", "--model", model_path, "--key", key,
      "--bits", "0,900"};
  bad_bits.insert(bad_bits.end(), common.begin(), common.end());
  EXPECT_EQ(run(bad_bits, out), 1);
  EXPECT_NE(out.find("error:"), std::string::npos);
}

TEST(CliTest, FaultCampaignRequiresKey) {
  std::string out;
  EXPECT_EQ(run({"fault-campaign", "--model", "/nonexistent.hpnn",
                 "--dataset", "fashion"},
                out),
            3);
  EXPECT_NE(out.find("error:"), std::string::npos);
}

TEST(CliTest, TrainRejectsBadKey) {
  std::string out;
  EXPECT_EQ(run({"train", "--arch", "CNN1", "--dataset", "fashion",
                 "--key", "nothex", "--out", "/tmp/x.hpnn"},
                out),
            4);
  EXPECT_NE(out.find("error:"), std::string::npos);
}

TEST(CliTest, EvalRejectsMissingFile) {
  std::string out;
  EXPECT_EQ(run({"eval", "--model", "/nonexistent.hpnn", "--dataset",
                 "fashion"},
                out),
            3);
  EXPECT_NE(out.find("error:"), std::string::npos);
}

TEST(CliTest, BadDatasetNameFails) {
  std::string out;
  // The attack command reads the stolen model before parsing the dataset
  // name, so the missing artifact surfaces first as a serialization error.
  EXPECT_EQ(run({"attack", "--model", "/tmp/none", "--dataset", "imagenet"},
                out),
            3);
}

TEST(CliTest, MissingOptionValueIsUsageError) {
  std::string out;
  EXPECT_EQ(run({"keygen", "--seed"}, out), 2);
  EXPECT_NE(out.find("error:"), std::string::npos);
}

TEST(CliTest, ServeSimRunsCleanPoolDeterministically) {
  std::string a, b;
  const std::vector<std::string> cmd = {
      "serve-sim", "--requests", "6",   "--batch", "1",
      "--seed",    "11",         "--replicas", "2",
      "--key-seu-rate", "0.0",   "--model-seed", "21"};
  ASSERT_EQ(run(cmd, a), 0) << a;
  ASSERT_EQ(run(cmd, b), 0) << b;
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("served 6/6 requests (0 wrong"), std::string::npos) << a;
}

TEST(CliTest, ServeSimSurvivesKeySeusAndEmitsJson) {
  std::string out;
  ASSERT_EQ(run({"serve-sim", "--requests", "10", "--batch", "1", "--seed",
                 "7", "--replicas", "3", "--key-seu-rate", "0.3",
                 "--model-seed", "21", "--json", "1"},
                out),
            0)
      << out;
  EXPECT_NE(out.find("0 wrong"), std::string::npos) << out;
  EXPECT_NE(out.find("\"bench\":\"serve_chaos\""), std::string::npos);
  EXPECT_NE(out.find("\"wrong\":0"), std::string::npos) << out;
}

TEST(CliTest, ServeSimRejectsBadPolicyNames) {
  std::string out;
  EXPECT_EQ(run({"serve-sim", "--degradation", "warp-core"}, out), 1);
  EXPECT_NE(out.find("unknown degradation policy"), std::string::npos);
  EXPECT_EQ(run({"serve-sim", "--verify", "vibes"}, out), 1);
  EXPECT_NE(out.find("unknown verify mode"), std::string::npos);
}

TEST(CliTest, ServeCommandsRejectOptionsTheyDoNotRead) {
  std::string out;
  EXPECT_EQ(run({"serve-sim", "--requests", "4", "--batch", "1",
                 "--no-such-flag", "7"},
                out),
            2);
  EXPECT_NE(out.find("--no-such-flag"), std::string::npos) << out;

  // The retired linger window fails closed in every serving command.
  EXPECT_EQ(run({"serve-sim", "--offered-qps", "1000", "--requests", "4",
                 "--max-linger-us", "2000"},
                out),
            2);
  EXPECT_NE(out.find("--max-linger-us"), std::string::npos) << out;
  EXPECT_EQ(run({"serve-load", "--requests", "4", "--max-linger-us", "2000"},
                out),
            2);
  EXPECT_NE(out.find("--max-linger-us"), std::string::npos) << out;
  EXPECT_EQ(run({"serve", "--max-linger-us", "2000"}, out), 2);
  EXPECT_NE(out.find("--max-linger-us"), std::string::npos) << out;

  // Global options stay accepted alongside a command's own.
  EXPECT_EQ(run({"serve-sim", "--requests", "2", "--batch", "1",
                 "--replicas", "2", "--model-seed", "21", "--threads", "1"},
                out),
            0)
      << out;

  // Every other command fails closed as well, before it writes a file or
  // trains. The commands that read an artifact get a real one.
  const std::string dir = ::testing::TempDir();
  const std::string key(64, 'a');
  const std::string model = dir + "/cli_unread.hpnn";
  const auto with_data = [](std::vector<std::string> cmd) {
    cmd.insert(cmd.end(), {"--dataset", "fashion", "--img", "12", "--tpc",
                           "2", "--testpc", "1"});
    return cmd;
  };
  ASSERT_EQ(run(with_data({"train", "--arch", "MLP", "--key", key, "--out",
                           model, "--epochs", "1"}),
                out),
            0)
      << out;
  const std::string never = dir + "/cli_unread_never";
  const std::vector<std::vector<std::string>> commands = {
      {"keygen", "--seed", "3"},
      with_data({"dataset", "--out", never}),
      {"zoo", "--zoo", never},
      {"provision", "--model", model, "--key", key, "--model-id", "m"},
      with_data({"train", "--arch", "MLP", "--key", key, "--out", never}),
      with_data({"eval", "--model", model, "--key", key}),
      with_data({"attack", "--model", model}),
      with_data({"defend-bench", "--json-out", "-"}),
      {"inspect", "--model", model},
      {"backends"},
      {"overhead", "--dim", "8"},
      with_data({"fault-campaign", "--model", model, "--key", key}),
  };
  for (auto cmd : commands) {
    cmd.insert(cmd.end(), {"--no-such-flag", "7"});
    EXPECT_EQ(run(cmd, out), 2) << cmd[0] << ": " << out;
    EXPECT_NE(out.find("--no-such-flag"), std::string::npos)
        << cmd[0] << ": " << out;
  }
  EXPECT_FALSE(std::filesystem::exists(never));
  EXPECT_FALSE(std::filesystem::exists(never + ".train.hpds"));
}

}  // namespace
}  // namespace hpnn::cli
