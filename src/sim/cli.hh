/**
 * @file
 * Command-line plumbing shared by the tools in tools/.
 *
 * Every tool accepts "--flag value" and "--flag=value", reports a
 * bad argument as one line "<tool>: <message>" on stderr and exits
 * with status 2.  Args walks argv in that convention; the free
 * functions parse the common value shapes with the same error
 * behaviour.
 */

#ifndef VSNOOP_SIM_CLI_HH_
#define VSNOOP_SIM_CLI_HH_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace vsnoop::cli
{

/**
 * Print "<tool>: @p msg" to stderr and exit 2.  The tool name is the
 * one the process's Args was constructed with.
 */
[[noreturn]] void die(const std::string &msg);

/**
 * @p value as an unsigned integer in [0, @p max], written in @p base
 * (0 also accepts 0x-hex).  Anything else — a sign, trailing junk,
 * a value out of range for the destination — dies naming @p flag,
 * rather than wrapping or truncating.
 */
std::uint64_t parseUint(
    const std::string &flag, const std::string &value,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max(),
    int base = 10);

/** Split "a,b,c"; dies on an empty list or an empty element. */
std::vector<std::string> splitList(const std::string &flag,
                                   const std::string &value);

/** Space-separated concatenation (for "known: ..." messages). */
std::string joinNames(const std::vector<std::string> &names);

/**
 * A cursor over argv with "--flag=value" already split into
 * "--flag", "value".
 *
 *   cli::Args args("vsnoopsim", argc, argv);
 *   while (args.next()) {
 *       if (args.flag() == "--app") app = args.value();
 *       ...
 *   }
 */
class Args
{
  public:
    /** @p tool prefixes every die() message. */
    Args(const char *tool, int argc, char **argv);

    /** Advance to the next flag; false once argv is exhausted. */
    bool next();

    /** The current flag. */
    const std::string &flag() const { return args_[pos_]; }

    /** Consume and return the current flag's value. */
    std::string value();

    /** value() through parseUint(). */
    std::uint64_t uintValue(
        std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
    {
        const std::string &name = flag();
        return parseUint(name, value(), max);
    }

  private:
    std::vector<std::string> args_;
    std::size_t pos_ = 0;
    bool started_ = false;
};

} // namespace vsnoop::cli

#endif // VSNOOP_SIM_CLI_HH_
