#include "common/cli.hpp"

#include <algorithm>
#include <utility>

namespace pet::cli {

Args::Args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i] == std::string_view("-h") ? "--help"
                                                                   : argv[i];
    const std::size_t eq = arg.find('=');
    if (!arg.starts_with("--")) {
      positionals_.emplace_back(arg);
    } else if (eq == std::string_view::npos) {
      options_.push_back({std::string(arg.substr(2)), std::nullopt});
    } else {
      options_.push_back({std::string(arg.substr(2, eq - 2)),
                          std::string(arg.substr(eq + 1))});
    }
  }
}

bool Args::flag(std::string_view key) const {
  const Option* option = last(key);
  if (option != nullptr && option->value) {
    throw UsageError("--" + option->key + " takes no value");
  }
  return option != nullptr;
}

std::string Args::get(std::string_view key, std::string fallback) const {
  const Option* option = last(key);
  return option == nullptr ? std::move(fallback) : value_of(*option);
}

std::string Args::choice(
    std::string_view key, std::string fallback,
    std::initializer_list<std::string_view> allowed) const {
  std::string value = get(key, std::move(fallback));
  if (std::find(allowed.begin(), allowed.end(), value) == allowed.end()) {
    throw UsageError("bad value in --" + std::string(key) + "=" + value);
  }
  return value;
}

std::vector<std::string> Args::all(std::string_view key) const {
  std::vector<std::string> values;
  for (const Option& option : options_) {
    if (option.key != key) continue;
    option.read = true;
    values.push_back(value_of(option));
  }
  return values;
}

void Args::refuse_unread(std::size_t positionals) const {
  for (const Option& option : options_) {
    if (!option.read) throw UsageError("unknown option --" + option.key);
  }
  if (positionals_.size() > positionals) {
    throw UsageError("unexpected argument " + positionals_[positionals]);
  }
}

const Args::Option* Args::last(std::string_view key) const {
  const Option* found = nullptr;
  for (const Option& option : options_) {
    if (option.key != key) continue;
    option.read = true;
    found = &option;
  }
  return found;
}

const std::string& Args::value_of(const Option& option) {
  if (!option.value) throw UsageError("--" + option.key + " needs a value");
  return *option.value;
}

}  // namespace pet::cli
