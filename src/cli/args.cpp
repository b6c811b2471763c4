#include "cli/args.h"

#include <charconv>
#include <sstream>
#include <stdexcept>

#include "kernels/kernels.h"
#include "util/logging.h"

namespace slide::cli {

ArgParser::ArgParser(std::string program_description)
    : description_(std::move(program_description)) {}

void ArgParser::add_string(const std::string& name, const std::string& default_value,
                           const std::string& help) {
  specs_[name] = Spec{Kind::String, help, default_value, false, false};
  order_.push_back(name);
}

void ArgParser::add_int(const std::string& name, std::int64_t default_value,
                        const std::string& help) {
  specs_[name] = Spec{Kind::Int, help, std::to_string(default_value), false, false};
  order_.push_back(name);
}

void ArgParser::add_double(const std::string& name, double default_value,
                           const std::string& help) {
  std::ostringstream os;
  os << default_value;
  specs_[name] = Spec{Kind::Double, help, os.str(), false, false};
  order_.push_back(name);
}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  specs_[name] = Spec{Kind::Flag, help, "false", false, false};
  order_.push_back(name);
}

void ArgParser::add_required_string(const std::string& name, const std::string& help) {
  specs_[name] = Spec{Kind::String, help, "", true, false};
  order_.push_back(name);
}

bool ArgParser::fail(const std::string& message) {
  error_ = message;
  return false;
}

ArgParser::Spec* ArgParser::find(const std::string& name) {
  const auto it = specs_.find(name);
  return it == specs_.end() ? nullptr : &it->second;
}

bool ArgParser::parse(int argc, const char* const* argv, int start) {
  for (int i = start; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      positional_.push_back(std::move(token));
      continue;
    }
    std::string name = token.substr(2);
    std::string inline_value;
    bool has_inline = false;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_inline = true;
    }
    Spec* spec = find(name);
    if (spec == nullptr) return fail("unknown flag --" + name);

    if (spec->kind == Kind::Flag) {
      if (has_inline) return fail("flag --" + name + " takes no value");
      spec->value = "true";
      spec->set = true;
      continue;
    }
    std::string value;
    if (has_inline) {
      value = inline_value;
    } else {
      if (i + 1 >= argc) return fail("flag --" + name + " expects a value");
      value = argv[++i];
    }
    if (spec->kind == Kind::Int) {
      std::int64_t parsed = 0;
      const auto [p, ec] = std::from_chars(value.data(), value.data() + value.size(), parsed);
      if (ec != std::errc() || p != value.data() + value.size()) {
        return fail("flag --" + name + " expects an integer, got '" + value + "'");
      }
    } else if (spec->kind == Kind::Double) {
      try {
        std::size_t used = 0;
        (void)std::stod(value, &used);
        if (used != value.size()) throw std::invalid_argument("trailing");
      } catch (const std::exception&) {
        return fail("flag --" + name + " expects a number, got '" + value + "'");
      }
    }
    spec->value = value;
    spec->set = true;
  }
  for (const auto& [name, spec] : specs_) {
    if (spec.required && !spec.set) return fail("missing required flag --" + name);
  }
  return true;
}

std::string ArgParser::help() const {
  std::ostringstream os;
  os << description_ << "\n\nflags:\n";
  for (const auto& name : order_) {
    const Spec& spec = specs_.at(name);
    os << "  --" << name;
    switch (spec.kind) {
      case Kind::String: os << " <string>"; break;
      case Kind::Int: os << " <int>"; break;
      case Kind::Double: os << " <number>"; break;
      case Kind::Flag: break;
    }
    os << "\n      " << spec.help;
    if (spec.required) {
      os << " (required)";
    } else if (spec.kind != Kind::Flag && !spec.value.empty()) {
      os << " (default: " << spec.value << ")";
    }
    os << "\n";
  }
  return os.str();
}

const std::string& ArgParser::get_string(const std::string& name) const {
  return specs_.at(name).value;
}

std::int64_t ArgParser::get_int(const std::string& name) const {
  return std::stoll(specs_.at(name).value);
}

double ArgParser::get_double(const std::string& name) const {
  return std::stod(specs_.at(name).value);
}

bool ArgParser::get_flag(const std::string& name) const {
  return specs_.at(name).value == "true";
}

bool ArgParser::was_set(const std::string& name) const { return specs_.at(name).set; }

CommandSet::CommandSet(std::string program, std::vector<std::string> commands)
    : program_(std::move(program)), commands_(std::move(commands)) {}

bool CommandSet::contains(const std::string& name) const {
  for (const auto& c : commands_) {
    if (c == name) return true;
  }
  return false;
}

std::string CommandSet::usage() const {
  std::ostringstream os;
  os << "usage: " << program_ << " <";
  for (std::size_t i = 0; i < commands_.size(); ++i) {
    if (i != 0) os << "|";
    os << commands_[i];
  }
  os << "> [flags]\n       " << program_ << " <command> --help\n";
  return os.str();
}

std::string CommandSet::usage_error(const std::string& name) const {
  std::ostringstream os;
  if (!name.empty()) os << "error: unknown command '" << name << "'\n";
  os << usage();
  return os.str();
}

const char* precision_name(Precision p) {
  switch (p) {
    case Precision::Fp32: return "fp32";
    case Precision::Bf16Activations: return "bf16act";
    case Precision::Bf16All: return "bf16all";
    case Precision::Int8: return "int8";
  }
  return "unknown";
}

bool parse_precision(std::string_view name, Precision* out) {
  if (name == "fp32") {
    *out = Precision::Fp32;
    return true;
  }
  if (name == "bf16act") {
    *out = Precision::Bf16Activations;
    return true;
  }
  if (name == "bf16all") {
    *out = Precision::Bf16All;
    return true;
  }
  if (name == "int8") {
    *out = Precision::Int8;
    return true;
  }
  return false;
}

std::string precision_usage_error(const std::string& got, bool allow_keep) {
  std::string msg = "--precision must be ";
  if (allow_keep) msg += "keep|";
  msg += "fp32|bf16act|bf16all|int8, got '" + got + "'";
  return msg;
}

void add_isa_flag(ArgParser& args) {
  args.add_string("isa", "auto",
                  "kernel backend: auto | scalar | avx2 | avx512 | avx512vnni");
}

bool apply_isa_flag(const ArgParser& args, std::string* error) {
  const std::string& value = args.get_string("isa");
  if (value.empty() || value == "auto") return true;
  kernels::Isa isa;
  if (!kernels::parse_isa(value, &isa)) {
    if (error != nullptr) {
      *error = "--isa must be auto|scalar|avx2|avx512|avx512vnni, got '" + value + "'";
    }
    return false;
  }
  if (!kernels::set_isa(isa)) {
    log_warn("--isa ", value, " is unavailable on this CPU/build; using ",
             kernels::active_isa_name());
  }
  return true;
}

bool check_input_width(const std::string& path, std::size_t file_feature_dim,
                       std::size_t model_input_dim, std::string* error) {
  if (file_feature_dim <= model_input_dim) return true;
  if (error != nullptr) {
    *error = path + " declares " + std::to_string(file_feature_dim) +
             " features but the model takes " + std::to_string(model_input_dim);
  }
  return false;
}

}  // namespace slide::cli
