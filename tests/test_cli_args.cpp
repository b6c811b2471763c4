#include "cli/args.h"

#include <gtest/gtest.h>

#include <string>

#include "kernels/kernels.h"

namespace slide::cli {
namespace {

ArgParser make_parser() {
  ArgParser p("test tool");
  p.add_string("name", "default", "a string");
  p.add_int("count", 3, "an int");
  p.add_double("rate", 0.5, "a double");
  p.add_flag("verbose", "a flag");
  p.add_required_string("input", "required path");
  return p;
}

TEST(ArgParser, DefaultsApplyWhenUnset) {
  ArgParser p = make_parser();
  const char* argv[] = {"prog", "--input", "x.txt"};
  ASSERT_TRUE(p.parse(3, argv)) << p.error();
  EXPECT_EQ(p.get_string("name"), "default");
  EXPECT_EQ(p.get_int("count"), 3);
  EXPECT_DOUBLE_EQ(p.get_double("rate"), 0.5);
  EXPECT_FALSE(p.get_flag("verbose"));
  EXPECT_EQ(p.get_string("input"), "x.txt");
  EXPECT_FALSE(p.was_set("name"));
  EXPECT_TRUE(p.was_set("input"));
}

TEST(ArgParser, ParsesAllTypes) {
  ArgParser p = make_parser();
  const char* argv[] = {"prog",    "--input", "a", "--name", "bob", "--count",
                        "42",      "--rate",  "1.25", "--verbose"};
  ASSERT_TRUE(p.parse(10, argv)) << p.error();
  EXPECT_EQ(p.get_string("name"), "bob");
  EXPECT_EQ(p.get_int("count"), 42);
  EXPECT_DOUBLE_EQ(p.get_double("rate"), 1.25);
  EXPECT_TRUE(p.get_flag("verbose"));
}

TEST(ArgParser, EqualsSyntax) {
  ArgParser p = make_parser();
  const char* argv[] = {"prog", "--input=in.txt", "--count=7"};
  ASSERT_TRUE(p.parse(3, argv)) << p.error();
  EXPECT_EQ(p.get_string("input"), "in.txt");
  EXPECT_EQ(p.get_int("count"), 7);
}

TEST(ArgParser, RejectsUnknownFlag) {
  ArgParser p = make_parser();
  const char* argv[] = {"prog", "--input", "x", "--bogus", "1"};
  EXPECT_FALSE(p.parse(5, argv));
  EXPECT_NE(p.error().find("bogus"), std::string::npos);
}

TEST(ArgParser, RejectsMissingRequired) {
  ArgParser p = make_parser();
  const char* argv[] = {"prog", "--name", "x"};
  EXPECT_FALSE(p.parse(3, argv));
  EXPECT_NE(p.error().find("input"), std::string::npos);
}

TEST(ArgParser, RejectsMissingValue) {
  ArgParser p = make_parser();
  const char* argv[] = {"prog", "--input"};
  EXPECT_FALSE(p.parse(2, argv));
  EXPECT_NE(p.error().find("expects a value"), std::string::npos);
}

TEST(ArgParser, RejectsBadInt) {
  ArgParser p = make_parser();
  const char* argv[] = {"prog", "--input", "x", "--count", "seven"};
  EXPECT_FALSE(p.parse(5, argv));
  EXPECT_NE(p.error().find("integer"), std::string::npos);
}

TEST(ArgParser, RejectsBadDouble) {
  ArgParser p = make_parser();
  const char* argv[] = {"prog", "--input", "x", "--rate", "fast"};
  EXPECT_FALSE(p.parse(5, argv));
  EXPECT_NE(p.error().find("number"), std::string::npos);
}

TEST(ArgParser, RejectsValueOnFlag) {
  ArgParser p = make_parser();
  const char* argv[] = {"prog", "--input", "x", "--verbose=yes"};
  EXPECT_FALSE(p.parse(4, argv));
  EXPECT_NE(p.error().find("takes no value"), std::string::npos);
}

TEST(ArgParser, NegativeIntegersParse) {
  ArgParser p = make_parser();
  const char* argv[] = {"prog", "--input", "x", "--count", "-5"};
  ASSERT_TRUE(p.parse(5, argv)) << p.error();
  EXPECT_EQ(p.get_int("count"), -5);
}

TEST(ArgParser, PositionalArgumentsCollected) {
  ArgParser p = make_parser();
  const char* argv[] = {"prog", "cmd", "--input", "x", "extra"};
  ASSERT_TRUE(p.parse(5, argv)) << p.error();
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "cmd");
  EXPECT_EQ(p.positional()[1], "extra");
}

TEST(ArgParser, StartOffsetSkipsSubcommand) {
  ArgParser p = make_parser();
  const char* argv[] = {"prog", "train", "--input", "x"};
  ASSERT_TRUE(p.parse(4, argv, 2)) << p.error();
  EXPECT_TRUE(p.positional().empty());
}

TEST(ArgParser, HelpListsAllFlagsWithDefaults) {
  const ArgParser p = make_parser();
  const std::string h = p.help();
  for (const char* needle :
       {"--name", "--count", "--rate", "--verbose", "--input", "(required)",
        "(default: 3)", "test tool"}) {
    EXPECT_NE(h.find(needle), std::string::npos) << needle;
  }
}

TEST(ArgParser, GetUndeclaredThrows) {
  const ArgParser p = make_parser();
  EXPECT_THROW((void)p.get_string("nope"), std::out_of_range);
}

// slide_cli's subcommand table: every miss (unknown name or no name at all)
// must produce the same usage text, so scripts can rely on a uniform
// non-zero-exit + usage-on-stderr contract across train|freeze|predict|serve.
TEST(CommandSet, KnowsItsCommands) {
  const CommandSet commands(
      "slide_cli", {"gen", "train", "eval", "info", "freeze", "predict", "serve"});
  for (const char* name : {"gen", "train", "eval", "info", "freeze", "predict", "serve"}) {
    EXPECT_TRUE(commands.contains(name)) << name;
  }
  EXPECT_FALSE(commands.contains("servee"));
  EXPECT_FALSE(commands.contains(""));
  EXPECT_FALSE(commands.contains("--help"));
}

TEST(CommandSet, UsageListsEveryCommandAndHelpForm) {
  const CommandSet commands("slide_cli", {"train", "freeze", "predict", "serve"});
  const std::string usage = commands.usage();
  EXPECT_NE(usage.find("usage: slide_cli <train|freeze|predict|serve> [flags]"),
            std::string::npos);
  EXPECT_NE(usage.find("slide_cli <command> --help"), std::string::npos);
}

TEST(CommandSet, UsageErrorIsUniformForUnknownAndMissing) {
  const CommandSet commands("slide_cli", {"train", "serve"});
  const std::string unknown = commands.usage_error("blorp");
  EXPECT_NE(unknown.find("unknown command 'blorp'"), std::string::npos);
  EXPECT_NE(unknown.find(commands.usage()), std::string::npos);
  // Missing subcommand: no offender line, same usage.
  EXPECT_EQ(commands.usage_error(""), commands.usage());
}

TEST(IsaFlag, SelectsRequestedBackend) {
  const kernels::Isa ambient = kernels::active_isa();
  for (const kernels::Isa isa : kernels::available_isas()) {
    ArgParser p("isa tool");
    add_isa_flag(p);
    const std::string value = std::string("--isa=") + kernels::isa_name(isa);
    const char* argv[] = {"prog", value.c_str()};
    ASSERT_TRUE(p.parse(2, argv)) << p.error();
    std::string error;
    ASSERT_TRUE(apply_isa_flag(p, &error)) << error;
    EXPECT_EQ(kernels::active_isa(), isa);
  }
  kernels::set_isa(ambient);
}

TEST(IsaFlag, AutoKeepsSelectionAndBadNameFails) {
  ArgParser p("isa tool");
  add_isa_flag(p);
  const char* argv[] = {"prog"};
  ASSERT_TRUE(p.parse(1, argv));
  std::string error;
  EXPECT_TRUE(apply_isa_flag(p, &error)) << error;  // default "auto"

  ArgParser bad("isa tool");
  add_isa_flag(bad);
  const char* argv2[] = {"prog", "--isa=mmx"};
  ASSERT_TRUE(bad.parse(2, argv2));
  EXPECT_FALSE(apply_isa_flag(bad, &error));
  EXPECT_NE(error.find("mmx"), std::string::npos);
}

TEST(PrecisionFlag, ParsesEveryNameAndRoundTrips) {
  const Precision all[] = {Precision::Fp32, Precision::Bf16Activations,
                           Precision::Bf16All, Precision::Int8};
  for (const Precision want : all) {
    Precision got = Precision::Fp32;
    ASSERT_TRUE(parse_precision(precision_name(want), &got)) << precision_name(want);
    EXPECT_EQ(got, want);
  }
  EXPECT_STREQ(precision_name(Precision::Int8), "int8");
}

TEST(PrecisionFlag, RejectsUnknownAndKeep) {
  Precision p = Precision::Fp32;
  EXPECT_FALSE(parse_precision("fp16", &p));
  EXPECT_FALSE(parse_precision("INT8", &p));  // case-sensitive, like --isa
  EXPECT_FALSE(parse_precision("", &p));
  // "keep" is a freeze-only sentinel, handled by the caller, never by the
  // shared parser.
  EXPECT_FALSE(parse_precision("keep", &p));
  EXPECT_EQ(p, Precision::Fp32);  // out param untouched on failure
}

TEST(PrecisionFlag, UsageErrorListsValidNames) {
  const std::string with_keep = precision_usage_error("fp16", true);
  EXPECT_NE(with_keep.find("keep|"), std::string::npos);
  EXPECT_NE(with_keep.find("int8"), std::string::npos);
  EXPECT_NE(with_keep.find("'fp16'"), std::string::npos);
  const std::string without = precision_usage_error("x", false);
  EXPECT_EQ(without.find("keep"), std::string::npos);
  EXPECT_NE(without.find("fp32|bf16act|bf16all|int8"), std::string::npos);
}

TEST(IsaFlag, UnavailableBackendFallsBackWithoutError) {
  const kernels::Isa ambient = kernels::active_isa();
  // Find a recognized but unavailable backend, if any exists on this host.
  for (const kernels::Isa isa : {kernels::Isa::Avx2, kernels::Isa::Avx512}) {
    if (kernels::isa_available(isa)) continue;
    ArgParser p("isa tool");
    add_isa_flag(p);
    const std::string value = std::string("--isa=") + kernels::isa_name(isa);
    const char* argv[] = {"prog", value.c_str()};
    ASSERT_TRUE(p.parse(2, argv));
    std::string error;
    EXPECT_TRUE(apply_isa_flag(p, &error)) << "fallback must not be an error";
    EXPECT_NE(kernels::active_isa(), isa);
  }
  kernels::set_isa(ambient);
}

TEST(InputWidth, AcceptsNarrowerOrEqualAndRejectsWiderFiles) {
  std::string error;
  EXPECT_TRUE(check_input_width("narrow.txt", 10, 24, &error));
  EXPECT_TRUE(check_input_width("same.txt", 24, 24, &error));
  EXPECT_TRUE(error.empty());
  EXPECT_TRUE(check_input_width("any.txt", 24, 24, nullptr));

  EXPECT_FALSE(check_input_width("wide.txt", 5000000, 24, &error));
  EXPECT_NE(error.find("wide.txt"), std::string::npos) << error;
  EXPECT_NE(error.find("5000000"), std::string::npos) << error;
  EXPECT_NE(error.find("24"), std::string::npos) << error;
  EXPECT_EQ(error.find('\n'), std::string::npos) << "one line: " << error;
  EXPECT_FALSE(check_input_width("wide.txt", 25, 24, nullptr));
}

}  // namespace
}  // namespace slide::cli
