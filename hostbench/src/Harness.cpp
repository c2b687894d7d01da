#include "Harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <stdexcept>
#include <system_error>

namespace hostbench
{

i64
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
secondsSince(i64 startNs)
{
    return static_cast<double>(nowNs() - startNs) * 1e-9;
}

double
peakRssMb()
{
    // VmHWM is the high-water mark of this process image alone;
    // getrusage's ru_maxrss would also carry the launcher's peak,
    // which Linux keeps across fork and exec.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

u64
directoryBytes(const std::string &dir)
{
    namespace fs = std::filesystem;
    u64 total = 0;
    for (const fs::directory_entry &e :
         fs::recursive_directory_iterator(dir))
        if (e.is_regular_file())
            total += e.file_size();
    return total;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

u64
mixSeed(u64 seed, u64 stream)
{
    // splitmix64 finalizer over the pair.
    u64 z = seed * 0x9e3779b97f4a7c15ULL + stream + 0x632be59bd9b4e019ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

ScratchDir::ScratchDir(std::filesystem::path path) : path_(std::move(path))
{
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir()
{
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
}

std::string
ScratchDir::sub(const std::string &name) const
{
    return (path_ / name).string();
}

Tracer::Scope::~Scope()
{
    if (tracer_ != nullptr)
        tracer_->close(index_);
}

Tracer::Scope
Tracer::span(const std::string &name, u64 op)
{
    if (!enabled_)
        return Scope(nullptr, -1);
    Span s;
    s.name = name;
    s.op = op;
    s.parent = open_.empty() ? -1 : open_.back();
    s.startNs = nowNs();
    spans_.push_back(std::move(s));
    const long index = static_cast<long>(spans_.size()) - 1;
    open_.push_back(index);
    return Scope(this, index);
}

void
Tracer::close(long index)
{
    spans_[static_cast<std::size_t>(index)].endNs = nowNs();
    if (!open_.empty() && open_.back() == index)
        open_.pop_back();
}

std::vector<double>
Tracer::durationsUs(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (s.name == name)
            out.push_back(static_cast<double>(s.endNs - s.startNs) * 1e-3);
    return out;
}

double
Tracer::medianUs(const std::string &name) const
{
    return median(durationsUs(name));
}

void
Tracer::write(const std::string &path) const
{
    if (!enabled_ || path.empty())
        return;
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write trace " + path);
    const i64 base = spans_.empty() ? 0 : spans_.front().startNs;
    out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, "
                      "\"tid\": 1, \"args\": {\"op\": %llu, "
                      "\"span\": %zu, \"parent\": %ld}}",
                      static_cast<double>(s.startNs - base) * 1e-3,
                      static_cast<double>(s.endNs - s.startNs) * 1e-3,
                      static_cast<unsigned long long>(s.op), i, s.parent);
        out << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", " << buf
            << (i + 1 == spans_.size() ? "\n" : ",\n");
    }
    out << "]}\n";
}

void
Outcome::check(bool ok, const std::string &what)
{
    if (!ok && errors.size() < 16)
        errors.push_back(what);
    else if (!ok)
        errors.back() = "... and more";
}

void
Outcome::setRounds(const Rounds &rounds, double opsPerRound)
{
    roundRates.clear();
    for (double s : rounds.seconds)
        roundRates.push_back(opsPerRound / s);
    set("ops_per_s", median(roundRates));
    set("peak_rss_mb", rounds.firstRoundRssMb);
}

} // namespace hostbench
