#include "atl/model/sharing_graph.hh"

#include <algorithm>
#include <cmath>

#include "atl/util/logging.hh"

namespace atl
{

namespace
{

const std::vector<SharingEdge> emptyEdges;

} // namespace

int
SharingGraph::findEdge(const Node &node, ThreadId dst)
{
    for (size_t i = 0; i < node.out.size(); ++i) {
        if (node.out[i].dest == dst)
            return static_cast<int>(i);
    }
    return -1;
}

void
SharingGraph::share(ThreadId src, ThreadId dst, double q)
{
    if (src == dst)
        return;
    if (!std::isfinite(q)) {
        // A NaN fails both range tests below and would be stored, then
        // reach the model's log table as an index.
        if (const char *suffix = _nonFinite.tick()) {
            atl_warn("non-finite sharing coefficient ", q, " for (", src,
                     ",", dst, ") dropped", suffix);
        }
        return;
    }
    if (q < 0.0 || q > 1.0) {
        // Throttled: a buggy (or fault-injected) program can emit
        // out-of-range coefficients by the thousand, and each one is
        // harmlessly clamped.
        ++_clampWarnings;
        if (_clampWarnings <= 8) {
            atl_warn("sharing coefficient ", q, " for (", src, ",", dst,
                     ") clamped to [0,1]",
                     _clampWarnings == 8 ? " (further warnings suppressed)"
                                         : "");
        }
        q = std::clamp(q, 0.0, 1.0);
    }

    if (q == 0.0) {
        // Removing an unspecified arc is a no-op.
        auto it = _nodes.find(src);
        if (it == _nodes.end())
            return;
        int idx = findEdge(it->second, dst);
        if (idx < 0)
            return;
        it->second.out.erase(it->second.out.begin() + idx);
        --_edgeCount;
        auto dit = _nodes.find(dst);
        if (dit != _nodes.end()) {
            auto &sources = dit->second.inSources;
            sources.erase(std::remove(sources.begin(), sources.end(), src),
                          sources.end());
        }
        return;
    }

    Node &node = _nodes[src];
    int idx = findEdge(node, dst);
    if (idx >= 0) {
        node.out[static_cast<size_t>(idx)].q = q;
        return;
    }
    node.out.push_back({dst, q});
    _nodes[dst].inSources.push_back(src);
    ++_edgeCount;
}

double
SharingGraph::coefficient(ThreadId src, ThreadId dst) const
{
    auto it = _nodes.find(src);
    if (it == _nodes.end())
        return 0.0;
    int idx = findEdge(it->second, dst);
    return idx < 0 ? 0.0 : it->second.out[static_cast<size_t>(idx)].q;
}

const std::vector<SharingEdge> &
SharingGraph::outEdges(ThreadId src) const
{
    auto it = _nodes.find(src);
    return it == _nodes.end() ? emptyEdges : it->second.out;
}

size_t
SharingGraph::outDegree(ThreadId src) const
{
    return outEdges(src).size();
}

void
SharingGraph::removeThread(ThreadId tid)
{
    auto it = _nodes.find(tid);
    if (it == _nodes.end())
        return;

    // Drop outgoing arcs, fixing the destinations' in-source lists.
    for (const SharingEdge &edge : it->second.out) {
        auto dit = _nodes.find(edge.dest);
        if (dit != _nodes.end()) {
            auto &sources = dit->second.inSources;
            sources.erase(std::remove(sources.begin(), sources.end(), tid),
                          sources.end());
        }
        --_edgeCount;
    }

    // Drop incoming arcs from each recorded source.
    for (ThreadId src : it->second.inSources) {
        auto sit = _nodes.find(src);
        if (sit == _nodes.end())
            continue;
        int idx = findEdge(sit->second, tid);
        if (idx >= 0) {
            sit->second.out.erase(sit->second.out.begin() + idx);
            --_edgeCount;
        }
    }

    _nodes.erase(it);
}

} // namespace atl
