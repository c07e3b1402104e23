#include "report.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench
{

namespace
{

/** JSON string literal for @p s (quotes and escapes included). */
std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/** JSON number with every digit, or null when not finite. */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
cpuModel()
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("model name", 0) == 0 ||
            line.rfind("Model", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(" \t",
                                                          colon + 1));
        }
    }
    return "unknown";
}

/** Host and build fingerprint as a JSON object. */
std::string
fingerprintJson()
{
    const char* simd_env = std::getenv("EDGEBENCH_SIMD");
    std::ostringstream os;
    os << "{\"cpu_model\": " << jsonString(cpuModel())
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"compiler\": "
       << jsonString(std::string(PB_COMPILER) + " (" + __VERSION__ + ")")
       << ", \"build_type\": " << jsonString(PB_BUILD_TYPE)
       << ", \"simd_build\": " << (PB_SIMD_BUILD ? "true" : "false")
       << ", \"simd_env\": " << jsonString(simd_env ? simd_env : "unset")
       << ", \"march_native\": " << (PB_MARCH_NATIVE ? "true" : "false")
       << "}";
    return os.str();
}

} // namespace

double
elapsedMs(Clock::time_point begin, Clock::time_point end)
{
    return std::chrono::duration<double, std::milli>(end - begin).count();
}

double
msSince(Clock::time_point begin)
{
    return elapsedMs(begin, Clock::now());
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
groupedQuantile(const std::vector<double>& v, const std::vector<int>& group,
                double q)
{
    std::map<int, std::vector<double>> by_group;
    for (std::size_t i = 0; i < v.size(); ++i)
        by_group[group[i]].push_back(v[i]);
    if (by_group.empty())
        return 0.0;
    double sum = 0.0;
    for (auto& [g, samples] : by_group)
        sum += quantile(std::move(samples), q);
    return sum / static_cast<double>(by_group.size());
}

double
slicedQuantile(const std::vector<double>& v, const std::vector<int>& slice,
               double q)
{
    std::map<int, std::vector<double>> by_slice;
    for (std::size_t i = 0; i < v.size(); ++i)
        by_slice[slice[i]].push_back(v[i]);
    std::vector<double> per_slice;
    for (auto& [s, samples] : by_slice)
        per_slice.push_back(quantile(std::move(samples), q));
    return quantile(std::move(per_slice), 0.5);
}

double
quietQuantile(const std::vector<double>& v, const std::vector<int>& slice,
              double q)
{
    std::map<int, std::vector<double>> by_slice;
    for (std::size_t i = 0; i < v.size(); ++i)
        by_slice[slice[i]].push_back(v[i]);
    std::vector<std::pair<double, int>> ranked;
    for (const auto& [s, samples] : by_slice)
        ranked.emplace_back(quantile(samples, 0.5), s);
    std::sort(ranked.begin(), ranked.end());
    ranked.resize(std::max<std::size_t>(1, ranked.size() / 4));
    std::vector<double> pool;
    for (const auto& [median, s] : ranked)
        pool.insert(pool.end(), by_slice[s].begin(), by_slice[s].end());
    return quantile(std::move(pool), q);
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // Linux: KiB
}

int
cappedThreads(int wanted)
{
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    return hw > 0 ? std::min(wanted, hw) : 1;
}

Args
parseArgs(int argc, char** argv)
{
    const std::string usage =
        "usage: --workload <name> [--seed n] [--seconds s] "
        "[--corrupt-reference] [--eval] [--trace-out file]";
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(arg + " needs a value\n" +
                                            usage);
            return argv[++i];
        };
        if (arg == "--workload")
            a.workload = value();
        else if (arg == "--seed")
            a.seed = std::stoull(value());
        else if (arg == "--seconds")
            a.seconds = std::stod(value());
        else if (arg == "--trace-out")
            a.traceOut = value();
        else if (arg == "--corrupt-reference")
            a.corruptReference = true;
        else if (arg == "--eval")
            a.eval = true;
        else
            throw std::invalid_argument("unknown argument " + arg + "\n" +
                                        usage);
    }
    if (!(a.seconds > 0.0))
        throw std::invalid_argument("--seconds must be positive\n" + usage);
    return a;
}

void
Result::metric(const std::string& name, double value,
               const std::string& unit)
{
    metrics_.push_back({name, value, unit});
}

void
Result::info(const std::string& key, double value)
{
    info_.emplace_back(key, jsonNumber(value));
}

void
Result::infoText(const std::string& key, const std::string& value)
{
    info_.emplace_back(key, jsonString(value));
}

void
Result::print(std::ostream& os) const
{
    bool finite = true;
    for (const auto& m : metrics_)
        finite = finite && std::isfinite(m.value);
    os << "{\"correct\": " << (correct && finite ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const auto& m = metrics_[i];
        os << (i ? ", " : "") << jsonString(m.name)
           << ": {\"value\": " << jsonNumber(m.value)
           << ", \"unit\": " << jsonString(m.unit) << "}";
    }
    os << "}, \"info\": {";
    for (std::size_t i = 0; i < info_.size(); ++i)
        os << (i ? ", " : "") << jsonString(info_[i].first) << ": "
           << info_[i].second;
    os << "}, \"fingerprint\": " << fingerprintJson() << "}\n";
}

} // namespace perfbench
