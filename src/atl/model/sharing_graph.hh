/**
 * @file
 * The shared-state dependency graph G = (V, E) induced by at_share()
 * annotations (paper Section 2.3).
 *
 * Nodes are runtime thread instances; a weighted arc (t_i, t_j) with
 * sharing coefficient q in [0, 1] states that fraction q of the lines
 * thread t_i brings into a cache also belong to the state of thread t_j
 * ("the cached state of t_j depends on activity of t_i"). The graph is
 * built dynamically as annotations execute; re-annotating an existing
 * arc changes its weight; unspecified arcs have coefficient 0; no
 * transitivity is assumed and arcs need not be bidirectional.
 *
 * Annotations are hints: out-of-range coefficients are clamped with a
 * warning rather than rejected, because incorrect annotations must never
 * affect correctness.
 */

#ifndef ATL_MODEL_SHARING_GRAPH_HH
#define ATL_MODEL_SHARING_GRAPH_HH

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "atl/mem/address.hh"
#include "atl/util/throttle.hh"

namespace atl
{

/** One outgoing dependency arc. */
struct SharingEdge
{
    /** Dependent thread (arc destination). */
    ThreadId dest;
    /** Sharing coefficient q in [0, 1]. */
    double q;
};

/**
 * Directed weighted sharing graph with O(1) amortised edge update and
 * O(out-degree) iteration, the two operations the scheduler needs on its
 * context-switch fast path.
 */
class SharingGraph
{
  public:
    /**
     * Add or update the arc (src -> dst) with coefficient q.
     * A coefficient of exactly 0 removes the arc (it is semantically
     * identical to an unspecified arc). Values outside [0, 1] are
     * clamped with a warning. A non-finite q (NaN, +-inf) carries no
     * fraction at all: the hint is dropped with a warning and the graph
     * is left as it was. Self-arcs are ignored: a thread trivially
     * shares all of its state with itself and the model's blocking-thread
     * case already covers it.
     */
    void share(ThreadId src, ThreadId dst, double q);

    /** Coefficient of (src -> dst); 0 when unspecified. */
    double coefficient(ThreadId src, ThreadId dst) const;

    /** Outgoing arcs of src (threads dependent on src). */
    const std::vector<SharingEdge> &outEdges(ThreadId src) const;

    /** Out-degree of src (the d in the O(d) context-switch bound). */
    size_t outDegree(ThreadId src) const;

    /**
     * Drop every arc incident to a terminated thread. Called when a
     * thread is reaped so the graph does not grow without bound over
     * millions of short-lived threads.
     */
    void removeThread(ThreadId tid);

    /** Total number of arcs currently in the graph. */
    size_t edgeCount() const { return _edgeCount; }

    /** Number of threads with at least one incident arc. */
    size_t nodeCount() const { return _nodes.size(); }

    /** Out-of-range coefficients clamped so far (warnings are only
     *  emitted for the first few). */
    uint64_t clampCount() const { return _clampWarnings; }

    /** Non-finite coefficients dropped so far. */
    uint64_t nonFiniteCount() const { return _nonFinite.count(); }

  private:
    struct Node
    {
        std::vector<SharingEdge> out;
        /** Sources of arcs pointing at this thread, for O(in-degree)
         *  cleanup in removeThread. */
        std::vector<ThreadId> inSources;
    };

    /** Find an arc within a node's out list; -1 when absent. */
    static int findEdge(const Node &node, ThreadId dst);

    std::unordered_map<ThreadId, Node> _nodes;
    size_t _edgeCount = 0;
    uint64_t _clampWarnings = 0;
    ThrottledWarn _nonFinite;
};

} // namespace atl

#endif // ATL_MODEL_SHARING_GRAPH_HH
