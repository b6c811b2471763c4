// Minimal typed command-line flag parser for the slide_cli tool.
//
// Flags are declared up front with defaults and help text; parse() then
// validates the command line against the declarations (unknown flags,
// missing values, and bad types are hard errors with useful messages).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.h"

namespace slide::cli {

class ArgParser {
 public:
  explicit ArgParser(std::string program_description);

  // Declaration API (call before parse).  `name` is used as "--name".
  void add_string(const std::string& name, const std::string& default_value,
                  const std::string& help);
  void add_int(const std::string& name, std::int64_t default_value, const std::string& help);
  void add_double(const std::string& name, double default_value, const std::string& help);
  // Boolean flags take no value: present = true.
  void add_flag(const std::string& name, const std::string& help);
  // Required flags have no default; parse() fails if they are absent.
  void add_required_string(const std::string& name, const std::string& help);

  // Parses argv[start..argc).  Returns false and fills error() on failure.
  bool parse(int argc, const char* const* argv, int start = 1);

  const std::string& error() const { return error_; }
  std::string help() const;

  // Typed access (throws std::out_of_range for undeclared names).
  const std::string& get_string(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_flag(const std::string& name) const;
  bool was_set(const std::string& name) const;

  // Positional arguments left over after flag parsing.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  enum class Kind { String, Int, Double, Flag };
  struct Spec {
    Kind kind;
    std::string help;
    std::string value;  // canonical textual value
    bool required = false;
    bool set = false;
  };

  bool fail(const std::string& message);
  Spec* find(const std::string& name);

  std::string description_;
  std::map<std::string, Spec> specs_;
  std::vector<std::string> order_;  // declaration order for help()
  std::vector<std::string> positional_;
  std::string error_;
};

// Subcommand dispatch table for multi-command tools (slide_cli).  Keeps the
// "unknown subcommand / no subcommand" failure path uniform and testable:
// every miss prints the same usage text and the tool exits non-zero.
class CommandSet {
 public:
  CommandSet(std::string program, std::vector<std::string> commands);

  bool contains(const std::string& name) const;
  // "usage: <prog> <a|b|c> [flags]\n       <prog> <command> --help\n"
  std::string usage() const;
  // Full usage-failure report: for an unknown name, names the offender
  // first; for a missing one (empty `name`), just the usage.  This is the
  // exact text the CLI prints to stderr before exiting 1.
  std::string usage_error(const std::string& name) const;

 private:
  std::string program_;
  std::vector<std::string> commands_;
};

// --- Standard flags shared across tools -----------------------------------

// Canonical CLI spelling of a precision: fp32 | bf16act | bf16all | int8.
const char* precision_name(Precision p);

// Parses a CLI precision name; returns false (leaving *out untouched) for
// anything unrecognized.  "keep" is deliberately NOT accepted here — entry
// points that support it check for it before calling.
bool parse_precision(std::string_view name, Precision* out);

// The one-line usage message every entry point prints for a bad precision
// value, e.g. "--precision must be keep|fp32|bf16act|bf16all|int8, got 'x'".
std::string precision_usage_error(const std::string& got, bool allow_keep);

// Declares the standard --isa flag (auto | scalar | avx2 | avx512 |
// avx512vnni | avx512bf16).
void add_isa_flag(ArgParser& args);

// Applies a parsed --isa value to the kernel dispatcher.  "auto" keeps the
// automatic selection; a recognized but unavailable backend logs a warning
// and falls back to the best available one.  Returns false (filling *error
// if given) only when the value is not a recognized ISA name.
bool apply_isa_flag(const ArgParser& args, std::string* error);

// An XC file may be narrower than the model it feeds, never wider: its
// feature ids index the input layer's weight rows.  Returns false, filling
// *error with a one-line message naming `path`, when the file's declared
// `file_feature_dim` exceeds `model_input_dim`.
bool check_input_width(const std::string& path, std::size_t file_feature_dim,
                       std::size_t model_input_dim, std::string* error);

}  // namespace slide::cli
