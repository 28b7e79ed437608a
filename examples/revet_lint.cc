/**
 * @file
 * revet-lint: compile a Revet program and run the static DFG analyses
 * (graph/analyze.hh) over the optimized graph, printing
 * machine-readable diagnostics.
 *
 *   revet-lint --list                 # registered app names
 *   revet-lint [--json] --app NAME    # lint one Table III app
 *   revet-lint [--json] FILE          # lint a Revet source file
 *   revet-lint [--json] --all         # lint every registered app
 *   revet-lint --absint ...           # value-range lints only
 *
 * --absint restricts the report to the abstract-interpretation lints
 * (graph/absint.hh): guaranteed int32 overflow, always-empty filter
 * arms, and effectful blocks that provably never receive data. The
 * JSON summary then carries one count per lint code so diagnostic
 * drift across apps is diffable.
 *
 * Translation validation runs inside the compile itself (the default
 * GraphPassOptions::validate knob): a pass application that breaks
 * token conservation or rate balance aborts compilation with a
 * ValidationError, which this driver reports as diagnostics. A pass
 * that breaks a structural invariant (Dfg::verify(): pairing, arities,
 * lane element types, region membership) aborts it earlier with a
 * std::logic_error, reported as a compile error. The rate-balance,
 * deadlock and value reports are the ones the compile already computed
 * for the surviving graph (CompiledArtifact::analysis()).
 *
 * Exit status: 0 clean (warnings allowed), 1 any error diagnostic or
 * failed compile, 2 usage. With --json every diagnostic is one JSON
 * object per line, followed by one summary object.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/apps.hh"
#include "core/revet.hh"
#include "graph/analyze.hh"

using namespace revet;

namespace
{

struct LintResult
{
    bool compiled = false;
    bool errors = false;
    int validatedPasses = 0;
    graph::AnalyzeReport report;
    std::vector<graph::Diagnostic> compileDiags;
    std::string compileError;
};

LintResult
lintSource(const std::string &source)
{
    LintResult out;
    try {
        auto prog = CompiledArtifact::build(source);
        out.compiled = true;
        out.validatedPasses = prog->optReport().validatedPasses;
        out.report = prog->analysis();
        out.errors = out.report.hasErrors();
    } catch (const graph::ValidationError &e) {
        out.compileDiags = e.diagnostics();
        out.compileError =
            "validation rejected pass '" + e.passName() + "'";
        out.errors = true;
    } catch (const std::exception &e) {
        out.compileError = e.what();
        out.errors = true;
    }
    return out;
}

void
printResult(const std::string &name, const LintResult &r, bool json,
            bool absintOnly)
{
    std::vector<graph::Diagnostic> diags = r.compileDiags;
    for (const auto &d : r.report.all())
        diags.push_back(d);
    if (absintOnly) {
        std::vector<graph::Diagnostic> kept;
        for (const auto &d : diags)
            if (d.analysis == "absint")
                kept.push_back(d);
        diags = std::move(kept);
    }

    if (json && absintOnly) {
        for (const auto &d : diags) {
            std::string line = d.json();
            line.insert(1, "\"program\":\"" + name + "\",");
            std::printf("%s\n", line.c_str());
        }
        int overflow = 0, deadArm = 0, unreachable = 0;
        for (const auto &d : diags) {
            overflow += d.code == "guaranteed-overflow";
            deadArm += d.code == "dead-filter-arm";
            unreachable += d.code == "unreachable-effect";
        }
        std::printf("{\"program\":\"%s\",\"compiled\":%s,"
                    "\"analysis\":\"absint\","
                    "\"guaranteed_overflow\":%d,"
                    "\"dead_filter_arm\":%d,"
                    "\"unreachable_effect\":%d}\n",
                    name.c_str(), r.compiled ? "true" : "false",
                    overflow, deadArm, unreachable);
        return;
    }
    if (json) {
        for (const auto &d : diags) {
            std::string line = d.json();
            // Tag each diagnostic with the program it came from.
            line.insert(1, "\"program\":\"" + name + "\",");
            std::printf("%s\n", line.c_str());
        }
        int nerr = 0, nwarn = 0;
        for (const auto &d : diags) {
            if (d.severity == graph::Diagnostic::Severity::error)
                ++nerr;
            else
                ++nwarn;
        }
        std::printf("{\"program\":\"%s\",\"compiled\":%s,"
                    "\"validated_passes\":%d,\"errors\":%d,"
                    "\"warnings\":%d,\"rate_consistent\":%s,"
                    "\"cycles\":%zu,\"risky_cycles\":%d,"
                    "\"parks\":%zu}\n",
                    name.c_str(), r.compiled ? "true" : "false",
                    r.validatedPasses, nerr, nwarn,
                    r.report.rates.consistent ? "true" : "false",
                    r.report.deadlock.cycles.size(),
                    r.report.deadlock.riskyCycles,
                    r.report.deadlock.parks.size());
        return;
    }

    if (!r.compileError.empty())
        std::printf("%s: compile failed: %s\n", name.c_str(),
                    r.compileError.c_str());
    else
        std::printf("%s: %d validated pass application(s); %s\n",
                    name.c_str(), r.validatedPasses,
                    r.report.summary().c_str());
    for (const auto &d : diags) {
        std::printf("  %s [%s/%s] %s\n",
                    d.severity == graph::Diagnostic::Severity::error
                        ? "error"
                        : "warning",
                    d.analysis.c_str(), d.code.c_str(),
                    d.message.c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false, all = false, absint = false;
    std::string appName, file;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg == "--absint") {
            absint = true;
        } else if (arg == "--all") {
            all = true;
        } else if (arg == "--list") {
            for (const auto &app : apps::allApps())
                std::printf("%s\n", app.name.c_str());
            return 0;
        } else if (arg == "--app" && i + 1 < argc) {
            appName = argv[++i];
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr,
                         "usage: revet-lint [--json] [--absint] "
                         "(--app NAME | --all | --list | FILE)\n");
            return 2;
        } else {
            file = arg;
        }
    }

    bool anyErrors = false;
    if (all) {
        for (const auto &app : apps::allApps()) {
            LintResult r = lintSource(app.source);
            printResult(app.name, r, json, absint);
            anyErrors |= r.errors;
        }
    } else if (!appName.empty()) {
        try {
            const auto &app = apps::findApp(appName);
            LintResult r = lintSource(app.source);
            printResult(app.name, r, json, absint);
            anyErrors |= r.errors;
        } catch (const std::out_of_range &) {
            std::fprintf(stderr, "revet-lint: unknown app '%s'\n",
                         appName.c_str());
            return 2;
        }
    } else if (!file.empty()) {
        std::ifstream in(file);
        if (!in) {
            std::fprintf(stderr, "revet-lint: cannot read '%s'\n",
                         file.c_str());
            return 2;
        }
        std::ostringstream src;
        src << in.rdbuf();
        LintResult r = lintSource(src.str());
        printResult(file, r, json, absint);
        anyErrors |= r.errors;
    } else {
        std::fprintf(stderr,
                     "usage: revet-lint [--json] [--absint] "
                     "(--app NAME | --all | --list | FILE)\n");
        return 2;
    }
    return anyErrors ? 1 : 0;
}
