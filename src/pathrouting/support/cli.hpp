// Minimal command-line flag parser for the examples and bench harnesses.
//
// Supports "--name=value" and "--name value" forms plus boolean switches.
// Unknown flags and positional arguments are an error (catches typos in
// experiment sweeps): finish() prints them and exits 2.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pathrouting::support {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// Declares and reads a flag, with a default. Call once per flag.
  std::int64_t flag_int(const std::string& name, std::int64_t def,
                        const std::string& help);
  double flag_double(const std::string& name, double def,
                     const std::string& help);
  std::string flag_str(const std::string& name, const std::string& def,
                       const std::string& help);
  bool flag_bool(const std::string& name, bool def, const std::string& help);

  /// Validates that every flag given on the command line was declared;
  /// prints usage and exits on "--help" (0) or on unknown flags or
  /// positional arguments (2). Call after all flag_* declarations.
  void finish(const std::string& program_description);

 private:
  std::string program_;
  std::map<std::string, std::string> given_;
  std::vector<std::string> stray_;  // arguments not starting with --
  std::vector<std::string> help_lines_;
  bool help_requested_ = false;
};

}  // namespace pathrouting::support
