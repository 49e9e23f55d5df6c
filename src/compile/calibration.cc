#include "compile/calibration.hh"

#include <utility>

#include "common/logging.hh"
#include "compile/graph.hh"

namespace forms::compile {

void
CalibrationTable::set(CalibEntry e)
{
    for (CalibEntry &have : entries_) {
        if (have.node == e.node) {
            have = std::move(e);
            return;
        }
    }
    entries_.push_back(std::move(e));
}

const CalibEntry *
CalibrationTable::find(const std::string &node) const
{
    for (const CalibEntry &e : entries_)
        if (e.node == node)
            return &e;
    return nullptr;
}

void
CalibrationTable::attachTo(Graph &g) const
{
    for (const CalibEntry &e : entries_) {
        bool found = false;
        for (int id = 0; id < g.capacity(); ++id) {
            if (!g.alive(id))
                continue;
            Node &n = g.node(id);
            if (n.name != e.node)
                continue;
            if (n.op != Op::Conv && n.op != Op::Dense) {
                fatal("calibration: entry '%s' names a %s node — only "
                      "matrix nodes have a DAC input grid",
                      e.node.c_str(), opName(n.op));
            }
            n.inScale = e.scale;
            n.inBits = inputBits_;
            if (e.eicFragments > 0 && inputBits_ > 0) {
                n.eicDensity = e.avgEic /
                    static_cast<float>(inputBits_);
            }
            found = true;
        }
        if (!found) {
            fatal("calibration: entry '%s' names no live graph node — "
                  "was this table built for a different model?",
                  e.node.c_str());
        }
    }
}

} // namespace forms::compile
