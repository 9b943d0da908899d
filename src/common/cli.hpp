// Strict command-line options shared by every tool and bench harness: an
// ordered list of `--key=value` options and bare `--flag`s, plus
// positional arguments.  A value is read only as a whole, so `--n=12x`,
// `--eps=` or `--threads=-1` is a UsageError, never a silent prefix or a
// wrapped number.  Each tool's main turns a UsageError into
// "tool: message", its usage text and exit status 2.
#pragma once

#include <charconv>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "common/ensure.hpp"

namespace pet::cli {

/// A command line the tool cannot run as given.  It is a PreconditionError
/// so that one handler also refuses a value a library validate() rejects.
class UsageError : public PreconditionError {
 public:
  using PreconditionError::PreconditionError;
};

/// `text` read as one whole T (integers in `base`); throws UsageError
/// naming `what` when a character is left over or the value does not fit.
template <class T>
  requires std::is_arithmetic_v<T>
[[nodiscard]] T parse(std::string_view text, std::string_view what,
                      int base = 10) {
  T out{};
  const char* end = text.data() + text.size();
  std::from_chars_result result{};
  if constexpr (std::is_integral_v<T>) {
    result = std::from_chars(text.data(), end, out, base);
  } else {
    result = std::from_chars(text.data(), end, out);
  }
  if (result.ec != std::errc{} || result.ptr != end) {
    throw UsageError("bad value in " + std::string(what));
  }
  return out;
}

class Args {
 public:
  /// Reads argv[1, argc); `-h` is `--help`.
  Args(int argc, const char* const* argv);

  [[nodiscard]] const std::vector<std::string>& positionals() const noexcept {
    return positionals_;
  }

  /// Whether the bare flag `--key` was given; `--key=value` is refused.
  [[nodiscard]] bool flag(std::string_view key) const;

  /// The last value given for `key`, or `fallback` when it is absent.
  [[nodiscard]] std::string get(std::string_view key,
                                std::string fallback) const;

  /// The last value of `key` read as a whole T, or `fallback` if absent.
  template <class T>
    requires std::is_arithmetic_v<T>
  [[nodiscard]] T get(std::string_view key, T fallback) const {
    const Option* option = last(key);
    if (option == nullptr) return fallback;
    const std::string& value = value_of(*option);
    return parse<T>(value, "--" + option->key + "=" + value);
  }

  /// The last value of `key`, which must be one of `allowed`, or
  /// `fallback` when it is absent.
  [[nodiscard]] std::string choice(
      std::string_view key, std::string fallback,
      std::initializer_list<std::string_view> allowed) const;

  /// Every value given for a repeatable `key`, in command-line order.
  [[nodiscard]] std::vector<std::string> all(std::string_view key) const;

  /// Refuses the first option no read above has asked for, and every
  /// positional after the first `positionals`.  A command calls it once it
  /// has read all its values, so its reads are its list of known keys.
  void refuse_unread(std::size_t positionals = 0) const;

 private:
  struct Option {
    std::string key;
    std::optional<std::string> value;  ///< nullopt for a bare --flag
    mutable bool read = false;
  };

  /// The last option named `key`, marking every one of them read.
  [[nodiscard]] const Option* last(std::string_view key) const;
  /// The option's value; throws UsageError for a bare flag.
  [[nodiscard]] static const std::string& value_of(const Option& option);

  std::vector<Option> options_;
  std::vector<std::string> positionals_;
};

}  // namespace pet::cli
