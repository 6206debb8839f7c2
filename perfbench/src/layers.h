#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// The in-process leg of the traced run: times direct calls into the public
// functions of each layer on the same query mix the HTTP workload sends, and
// records one span per call.

#include <cstdint>

#include "common/status.h"
#include "exec/exec_control.h"
#include "tenants.h"
#include "trace.h"

namespace perfbench {

/// Work counts of the leg. They are a pure function of the inputs and the
/// cache state, so they repeat exactly run to run.
struct LegCounts {
  // One pass of the query mix through Session::Execute.
  uint64_t tuples_completed = 0;
  uint64_t models_consulted = 0;
  // Models the scratch Db retrained in Db::RefreshStaleModels.
  uint64_t models_refreshed = 0;
};

/// Records, on tracer thread `thread`:
///   inproc.session_execute     Session::Execute per query (`policy`)
///   inproc.execute_sql         ExecuteSql on the incomplete data
///   inproc.complete_path_join  IncompletenessJoinExecutor::CompletePathJoin
///                              over each tenant's selected path
///   inproc.tuple_factor        PathModel::SampleTupleFactors, first hop
///   inproc.synthesize_hop      PathModel::SynthesizeHop, first hop
///   inproc.db_append           Db::Append of removed rows into a scratch Db
///                              over the first tenant's data
///   inproc.refresh_stale_models  Db::RefreshStaleModels on that scratch Db
///                              after the appends: every model over the
///                              appended table retrains and swaps in
/// The query and completion calls run three times over.
restore::Status RunInProcessLeg(const Inputs& inputs, const Fleet& fleet,
                                restore::CachePolicy policy, Tracer* tracer,
                                size_t thread, LegCounts* counts);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
