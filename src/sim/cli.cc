#include "sim/cli.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <iostream>

namespace vsnoop::cli
{

namespace
{

const char *g_tool = "vsnoop";

} // namespace

void
die(const std::string &msg)
{
    std::cerr << g_tool << ": " << msg << "\n";
    std::exit(2);
}

std::uint64_t
parseUint(const std::string &flag, const std::string &value,
          std::uint64_t max, int base)
{
    // strtoull skips blanks and accepts a sign (wrapping "-1" to
    // 2^64-1), so insist on a leading digit.
    char *end = nullptr;
    errno = 0;
    unsigned long long parsed =
        std::strtoull(value.c_str(), &end, base);
    if (value.empty() ||
        !std::isdigit(static_cast<unsigned char>(value[0])) ||
        *end != '\0')
        die(flag + " expects a non-negative integer, got '" + value +
            "'");
    if (errno == ERANGE || parsed > max)
        die(flag + " expects an integer no larger than " +
            std::to_string(max) + ", got '" + value + "'");
    return parsed;
}

std::vector<std::string>
splitList(const std::string &flag, const std::string &value)
{
    std::vector<std::string> items;
    std::size_t start = 0;
    for (;;) {
        std::size_t comma = value.find(',', start);
        if (comma == std::string::npos)
            comma = value.size();
        std::string item = value.substr(start, comma - start);
        if (item.empty())
            die(flag + " has an empty list element in '" + value +
                "'");
        items.push_back(std::move(item));
        if (comma == value.size())
            return items;
        start = comma + 1;
    }
}

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &name : names) {
        if (!out.empty())
            out += ' ';
        out += name;
    }
    return out;
}

Args::Args(const char *tool, int argc, char **argv)
{
    g_tool = tool;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::size_t eq;
        if (arg.rfind("--", 0) == 0 &&
            (eq = arg.find('=')) != std::string::npos) {
            args_.push_back(arg.substr(0, eq));
            args_.push_back(arg.substr(eq + 1));
        } else {
            args_.push_back(std::move(arg));
        }
    }
}

bool
Args::next()
{
    if (started_)
        ++pos_;
    started_ = true;
    return pos_ < args_.size();
}

std::string
Args::value()
{
    if (pos_ + 1 >= args_.size())
        die(flag() + " requires a value");
    return args_[++pos_];
}

} // namespace vsnoop::cli
