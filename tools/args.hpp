// Command-line parsing shared by scandiag and scandiag_client.
//
// Each tool declares the options it takes with their kinds; anything else, or
// a value of the wrong kind, is a usage error (std::invalid_argument, which
// both tools turn into exit 2 before doing any work).
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace scandiag::cli {

/// A count: starts with a digit (decimal, 0x hex or leading-0 octal, as
/// strtoull's base 0 reads it) and fits in 64 bits. No sign, no whitespace.
inline std::optional<std::uint64_t> parseCount(const std::string& text) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 0);
  if (errno == ERANGE || *end != '\0') return std::nullopt;
  return value;
}

/// A finite non-negative real: starts with a digit or '.', no sign, no
/// whitespace, no inf/nan.
inline std::optional<double> parseReal(const std::string& text) {
  if (text.empty() || !(std::isdigit(static_cast<unsigned char>(text[0])) || text[0] == '.'))
    return std::nullopt;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(value)) return std::nullopt;
  return value;
}

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;
  std::set<std::string> flags;

  /// Parses argv[1..]. `accepted` lists the options, space-separated, each
  /// suffixed by its kind: '#' a count, '%' a real number, '=' free text,
  /// none a flag. An unknown option is reported as "<who>: unknown option".
  static Args parse(int argc, char** argv, const std::string& accepted, const std::string& who) {
    std::map<std::string, char> kinds;
    std::istringstream names(accepted);
    for (std::string name; names >> name;) {
      const bool valued = name.back() == '#' || name.back() == '%' || name.back() == '=';
      kinds[valued ? name.substr(0, name.size() - 1) : name] = valued ? name.back() : ' ';
    }
    Args args;
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a.rfind("--", 0) != 0) {
        args.positional.push_back(a);
        continue;
      }
      const std::string key = a.substr(2);
      const auto kind = kinds.find(key);
      if (kind == kinds.end()) throw std::invalid_argument(who + ": unknown option --" + key);
      if (kind->second == ' ') {
        args.flags.insert(key);
        continue;
      }
      if (i + 1 >= argc) throw std::invalid_argument("option --" + key + " needs a value");
      const std::string value = argv[++i];
      if ((kind->second == '#' && !parseCount(value)) ||
          (kind->second == '%' && !parseReal(value)))
        throw std::invalid_argument("option --" + key + " needs a number, got '" + value + "'");
      args.options[key] = value;
    }
    return args;
  }

  const std::string& positionalAt(std::size_t i, const std::string& what) const {
    if (i >= positional.size()) throw std::invalid_argument("missing " + what + " argument");
    return positional[i];
  }
  bool has(const std::string& key) const { return options.count(key) != 0; }
  std::string get(const std::string& key, const std::string& def) const {
    const auto it = options.find(key);
    return it == options.end() ? def : it->second;
  }
  std::size_t getN(const std::string& key, std::size_t def) const {
    const auto it = options.find(key);
    return it == options.end() ? def : *parseCount(it->second);
  }
  double getD(const std::string& key, double def) const {
    const auto it = options.find(key);
    return it == options.end() ? def : *parseReal(it->second);
  }
  bool getFlag(const std::string& key) const { return flags.count(key) != 0; }
};

}  // namespace scandiag::cli
