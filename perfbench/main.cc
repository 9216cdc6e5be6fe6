/**
 * @file
 * The pass binary: runs ONE pass of one workload and prints what it
 * measured as one JSON line. perfbench/run.py runs passes, each in a
 * fresh process so every pass starts from the same process state, and
 * aggregates them into the benchmark's result.
 *
 *   relax_perfbench --workload <name> --seed <n> --trace <0|1>
 *                   [--trace-out <path>]
 *
 * --trace 1 compiles through the per-pass mirror of frontend::compile,
 * records host spans around public calls (written to --trace-out), tallies
 * the device trace and reports the per-layer metrics. Each pass also
 * checks that the next seed generates different inputs.
 *
 * Output: {"host_us", "check_us", "slowdown", "rss_mb", "setup_s": [...],
 * "host_tok_s": [...], "sim": {...}, "layer": {...}, "attempted",
 * "failed", "mismatches", "errors": [...]}.
 */
#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

using namespace relax;
using namespace relax::perfbench;

std::string
jsonNumber(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

std::string
jsonString(const std::string& text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\') out += '\\';
        out += (unsigned char)c < 0x20 ? ' ' : c;
    }
    return out + "\"";
}

std::string
jsonList(const std::vector<double>& values)
{
    std::string out = "[";
    for (size_t i = 0; i < values.size(); ++i) {
        out += (i ? ", " : "") + jsonNumber(values[i]);
    }
    return out + "]";
}

std::string
jsonObject(const std::map<std::string, double>& values)
{
    std::string out = "{";
    for (const auto& [name, value] : values) {
        out += (out.size() > 1 ? ", " : "") + jsonString(name) + ": " +
               jsonNumber(value);
    }
    return out + "}";
}

double
peakRssMb()
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return (double)usage.ru_maxrss / 1024.0; // ru_maxrss is in KiB
}

/**
 * Pins the process to the CPU it runs on. On a shared machine each CPU's
 * speed drifts on its own; the yardstick, spawned with the inherited
 * mask, then measures the CPU that runs the measured work.
 */
void
pinToCurrentCpu()
{
    int cpu = sched_getcpu();
    if (cpu < 0) return;
    cpu_set_t mask;
    CPU_ZERO(&mask);
    CPU_SET(cpu, &mask);
    sched_setaffinity(0, sizeof(mask), &mask);
}

int
usage(const char* argv0)
{
    std::cerr << "usage: " << argv0
              << " --workload <name> --seed <n> --trace <0|1>"
                 " [--trace-out <path>]\nworkloads:";
    for (const Workload& w : workloads()) std::cerr << " " << w.name;
    std::cerr << "\n";
    return 2;
}

void
runPass(const Workload& workload, uint64_t seed, bool traced,
        const std::string& trace_out, const std::string& yardstick_binary)
{
    pinToCurrentCpu();
    TraceRecorder spans;
    spans.enable(traced);
    Yardstick yardstick(yardstick_binary);
    RunContext ctx{seed, traced, &spans, &yardstick};
    double t0 = nowUs();
    PassOut out = workload.run(ctx);
    out.hostUs = nowUs() - t0 - yardstick.spentUs();
    double slowdown = yardstick.slowdownSince(0); // reported, not applied
    if (traced) {
        // Set-up layers are reported per set-up, the unit setup_s times.
        double setups = (double)out.setupS.size();
        for (auto& [name, value] : out.layer) {
            bool per_setup = name.rfind("passes.", 0) == 0 ||
                             name == "frontend.build_ms" ||
                             name == "vm.codegen_ms";
            if (per_setup && setups > 0) value /= setups;
        }
        out.layer["tir.run_host_us"] = tirRunHostUs();
        if (!trace_out.empty()) {
            std::ofstream os(trace_out);
            spans.writeChromeTrace(os);
            out.check((bool)os, "cannot write " + trace_out);
        }
    }
    out.check(workload.inputsHash(seed) != workload.inputsHash(seed + 1),
              "the next seed generates the same inputs");

    std::string errors = "[";
    for (const std::string& error : out.errors) {
        errors += (errors.size() > 1 ? ", " : "") + jsonString(error);
    }
    errors += "]";
    std::printf("{\"host_us\": %s, \"check_us\": %s, \"slowdown\": %s, "
                "\"rss_mb\": %s, "
                "\"setup_s\": %s, \"host_tok_s\": %s, \"sim\": %s, "
                "\"layer\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"mismatches\": %lld, \"errors\": %s}\n",
                jsonNumber(out.hostUs).c_str(),
                jsonNumber(out.checkUs).c_str(), jsonNumber(slowdown).c_str(),
                jsonNumber(peakRssMb()).c_str(),
                jsonList(out.setupS).c_str(), jsonList(out.hostTokS).c_str(),
                jsonObject(out.sim).c_str(), jsonObject(out.layer).c_str(),
                (long long)out.attempted, (long long)out.failed,
                (long long)out.mismatches, errors.c_str());
}

} // namespace

int
main(int argc, char** argv)
{
    std::string workload_name, trace_out;
    long long seed = -1;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i];
        const char* value = argv[i + 1];
        char* end = nullptr;
        if (flag == "--workload") {
            workload_name = value;
        } else if (flag == "--seed") {
            seed = std::strtoll(value, &end, 10);
        } else if (flag == "--trace") {
            trace = (int)std::strtol(value, &end, 10);
        } else if (flag == "--trace-out") {
            trace_out = value;
        } else {
            return usage(argv[0]);
        }
        if (end && *end != '\0') return usage(argv[0]);
    }
    if (argc % 2 == 0 || seed < 0 || (trace != 0 && trace != 1)) {
        return usage(argv[0]);
    }
    for (const Workload& workload : workloads()) {
        if (workload.name != workload_name) continue;
        try {
            // The yardstick is built next to this binary.
            std::string self = argv[0];
            size_t slash = self.rfind('/');
            std::string dir =
                slash == std::string::npos ? "." : self.substr(0, slash);
            runPass(workload, (uint64_t)seed, trace == 1, trace_out,
                    dir + "/relax_perfbench_yardstick");
            return 0;
        } catch (const std::exception& e) {
            std::cerr << "error: " << e.what() << "\n";
            return 1;
        }
    }
    return usage(argv[0]);
}
