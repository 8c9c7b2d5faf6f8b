/**
 * @file
 * Golden-run regression corpus.
 *
 * Every figure harness is run at a fixed cheap effort setting and its
 * metrics JSON document is compared byte-for-byte (after newline
 * normalization) against a checked-in golden file. Any change to the
 * simulation that shifts a counter shows up as a readable diff here.
 * Figures that simulate the same points as another share its file:
 * fig05-fig09 run fig04's grid, fig13 fig12's sweeps and fig15
 * fig14's communication runs, so their points are rendered under the
 * shared document's id and compared against that one file.
 *
 * Regenerating after an intentional behavior change:
 *
 *     MIDDLESIM_REGEN_GOLDEN=1 ctest -R Golden
 *
 * (a figure sharing another's file skips; the owner rewrites it),
 * then inspect `git diff tests/golden/` and commit the new corpus.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/figures.hh"
#include "core/metrics_io.hh"

using namespace middlesim;

#ifndef MIDDLESIM_GOLDEN_DIR
#error "MIDDLESIM_GOLDEN_DIR must point at the golden corpus"
#endif

namespace
{

/** The corpus effort setting. Changing this invalidates the corpus. */
core::FigureOptions
goldenOptions()
{
    core::FigureOptions opt;
    opt.runs = 1;
    opt.timeScale = 0.15;
    opt.seed = 7;
    return opt;
}

std::string
goldenPath(const std::string &id)
{
    return std::string(MIDDLESIM_GOLDEN_DIR) + "/" + id + ".json";
}

/** Split into lines, dropping any trailing '\r' (CRLF checkouts). */
std::vector<std::string>
normalizedLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        lines.push_back(line);
    }
    return lines;
}

/** First-mismatch report: a handful of numbered expected/actual pairs. */
std::string
diffReport(const std::vector<std::string> &want,
           const std::vector<std::string> &got)
{
    std::ostringstream os;
    const std::size_t n = std::max(want.size(), got.size());
    int shown = 0;
    for (std::size_t i = 0; i < n && shown < 8; ++i) {
        const std::string *w = i < want.size() ? &want[i] : nullptr;
        const std::string *g = i < got.size() ? &got[i] : nullptr;
        if (w && g && *w == *g)
            continue;
        os << "  line " << (i + 1) << ":\n"
           << "    golden: " << (w ? *w : "<missing>") << "\n"
           << "    actual: " << (g ? *g : "<missing>") << "\n";
        ++shown;
    }
    if (shown == 0)
        os << "  (no differing lines?)\n";
    return os.str();
}

/**
 * Run `id`'s harness and compare its document against the golden file
 * of `golden` (the figure whose points it shares; its own by default).
 */
void
checkFigure(const std::string &id,
            core::FigureResult (*harness)(const core::FigureOptions &),
            const std::string &golden = "")
{
    const core::FigureResult fig = harness(goldenOptions());
    ASSERT_EQ(fig.id, id);
    ASSERT_FALSE(fig.metricsByPoint.empty())
        << id << " produced no metric snapshots";

    const std::string file_id = golden.empty() ? id : golden;
    std::ostringstream actual_os;
    core::writeMetricsJson(actual_os, file_id, fig.metricsByPoint);
    const std::string actual = actual_os.str();

    const std::string path = goldenPath(file_id);
    if (std::getenv("MIDDLESIM_REGEN_GOLDEN")) {
        if (file_id != id)
            GTEST_SKIP() << id << " shares " << path << " with " << file_id;
        std::ofstream out(path);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << actual;
        GTEST_SKIP() << "regenerated " << path;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " (run with MIDDLESIM_REGEN_GOLDEN=1 to create)";
    std::ostringstream want_os;
    want_os << in.rdbuf();

    const auto want = normalizedLines(want_os.str());
    const auto got = normalizedLines(actual);
    EXPECT_EQ(want, got)
        << id << " metrics diverged from " << path << ":\n"
        << diffReport(want, got)
        << (file_id != id ? id + " no longer simulates " + file_id +
                                "'s points; give it its own file.\n"
                          : "")
        << "If the change is intentional, regenerate with\n"
        << "  MIDDLESIM_REGEN_GOLDEN=1 ctest -R Golden\n"
        << "and commit the updated corpus.";
}

} // namespace

TEST(GoldenCorpus, Fig04) { checkFigure("fig04", core::runFig04); }
TEST(GoldenCorpus, Fig05) { checkFigure("fig05", core::runFig05, "fig04"); }
TEST(GoldenCorpus, Fig06) { checkFigure("fig06", core::runFig06, "fig04"); }
TEST(GoldenCorpus, Fig07) { checkFigure("fig07", core::runFig07, "fig04"); }
TEST(GoldenCorpus, Fig08) { checkFigure("fig08", core::runFig08, "fig04"); }
TEST(GoldenCorpus, Fig09) { checkFigure("fig09", core::runFig09, "fig04"); }
TEST(GoldenCorpus, Fig10) { checkFigure("fig10", core::runFig10); }
TEST(GoldenCorpus, Fig11) { checkFigure("fig11", core::runFig11); }
TEST(GoldenCorpus, Fig12) { checkFigure("fig12", core::runFig12); }
TEST(GoldenCorpus, Fig13) { checkFigure("fig13", core::runFig13, "fig12"); }
TEST(GoldenCorpus, Fig14) { checkFigure("fig14", core::runFig14); }
TEST(GoldenCorpus, Fig15) { checkFigure("fig15", core::runFig15, "fig14"); }
TEST(GoldenCorpus, Fig16) { checkFigure("fig16", core::runFig16); }
