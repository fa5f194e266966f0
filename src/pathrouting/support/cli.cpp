#include "pathrouting/support/cli.hpp"

#include <cstdio>
#include <cstdlib>

#include "pathrouting/support/check.hpp"

namespace pathrouting::support {

Cli::Cli(int argc, const char* const* argv) {
  PR_REQUIRE(argc >= 1);
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      stray_.push_back(arg);  // reported by finish()
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      given_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      given_[arg] = argv[++i];
    } else {
      given_[arg] = "true";  // boolean switch
    }
  }
}

std::int64_t Cli::flag_int(const std::string& name, std::int64_t def,
                           const std::string& help) {
  help_lines_.push_back("  --" + name + "=<int>  (default " +
                        std::to_string(def) + ")  " + help);
  auto it = given_.find(name);
  if (it == given_.end()) return def;
  const std::string value = it->second;
  given_.erase(it);
  return std::strtoll(value.c_str(), nullptr, 10);
}

double Cli::flag_double(const std::string& name, double def,
                        const std::string& help) {
  help_lines_.push_back("  --" + name + "=<num>  (default " +
                        std::to_string(def) + ")  " + help);
  auto it = given_.find(name);
  if (it == given_.end()) return def;
  const std::string value = it->second;
  given_.erase(it);
  return std::strtod(value.c_str(), nullptr);
}

std::string Cli::flag_str(const std::string& name, const std::string& def,
                          const std::string& help) {
  help_lines_.push_back("  --" + name + "=<str>  (default \"" + def + "\")  " +
                        help);
  auto it = given_.find(name);
  if (it == given_.end()) return def;
  std::string value = it->second;
  given_.erase(it);
  return value;
}

bool Cli::flag_bool(const std::string& name, bool def,
                    const std::string& help) {
  help_lines_.push_back("  --" + name + "  (default " +
                        (def ? "true" : "false") + ")  " + help);
  auto it = given_.find(name);
  if (it == given_.end()) return def;
  const std::string value = it->second;
  given_.erase(it);
  return value == "true" || value == "1" || value == "yes";
}

void Cli::finish(const std::string& program_description) {
  if (help_requested_) {
    std::printf("%s\n\n%s\n\nFlags:\n", program_.c_str(),
                program_description.c_str());
    for (const auto& line : help_lines_) std::printf("%s\n", line.c_str());
    std::exit(0);
  }
  if (!given_.empty() || !stray_.empty()) {
    if (!given_.empty()) {
      std::fprintf(stderr, "unknown flag(s):");
      for (const auto& [name, value] : given_) {
        std::fprintf(stderr, " --%s=%s", name.c_str(), value.c_str());
      }
      std::fprintf(stderr, "\n");
    }
    if (!stray_.empty()) {
      std::fprintf(stderr, "unexpected argument(s):");
      for (const auto& arg : stray_) std::fprintf(stderr, " %s", arg.c_str());
      std::fprintf(stderr, "\n");
    }
    std::fprintf(stderr, "use --help for usage\n");
    std::exit(2);
  }
}

}  // namespace pathrouting::support
