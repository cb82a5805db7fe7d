// Per-poll records rebuilt from a run's obs trace, for the suites that
// check poll-by-poll behaviour. A poll is one `cat == "poll"` event, named
// after its sim::PollOutcome and carrying round, tag and serving-AP args;
// an `arq.retx` instant right after it on the same track marks a
// retransmission.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace itb::sim::test {

/// The numeric argument `name` of `e`; throws when the event lacks it.
inline std::uint64_t trace_arg(const obs::TraceEvent& e, const char* name) {
  for (const obs::TraceArg& a : e.args) {
    if (a.name != nullptr && std::strcmp(a.name, name) == 0) return a.value;
  }
  throw std::out_of_range(std::string("trace event has no arg ") + name);
}

struct TracedPoll {
  std::int64_t ts_us = 0;
  std::uint64_t round = 0;
  std::uint64_t tag = 0;
  std::uint64_t ap = 0;   ///< AP that served (or would have served) the poll
  std::string outcome;    ///< sim::poll_outcome_name of the slot's outcome
  bool retransmission = false;
};

/// Every poll in `log`, in log order.
inline std::vector<TracedPoll> traced_polls(const obs::TraceLog& log) {
  std::vector<TracedPoll> polls;
  const obs::TraceEvent* last_poll = nullptr;
  for (const obs::TraceEvent& e : log.events()) {
    if (std::strcmp(e.cat, "poll") == 0) {
      polls.push_back({e.ts_us, trace_arg(e, "round"), trace_arg(e, "tag"),
                       trace_arg(e, "ap"), e.name, false});
      last_poll = &e;
    } else if (std::strcmp(e.name, "arq.retx") == 0) {
      if (last_poll == nullptr || last_poll->ts_us != e.ts_us ||
          last_poll->pid != e.pid || last_poll->tid != e.tid) {
        throw std::logic_error("arq.retx instant without its poll event");
      }
      polls.back().retransmission = true;
    }
  }
  return polls;
}

}  // namespace itb::sim::test
