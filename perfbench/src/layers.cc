#include "layers.h"

#include <chrono>
#include <numeric>
#include <set>

#include "common/rng.h"
#include "exec/executor.h"
#include "restore/incompleteness_join.h"

namespace perfbench {

using restore::Result;
using restore::Status;

namespace {

using Clock = std::chrono::steady_clock;

/// Runs `fn`, records its wall time as a root span, and returns its status.
template <typename Fn>
Status Timed(Tracer* tracer, size_t thread, const char* name,
             const std::string& label, Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  Status status = fn();
  const Clock::time_point t1 = Clock::now();
  tracer->Add(thread, {tracer->NextId(), name, "", tracer->Since(t0),
                       std::chrono::duration<double>(t1 - t0).count(),
                       label});
  return status;
}

/// Times the completion layer of one tenant: the whole path join, then the
/// first hop's model calls on every root row.
Status TimeCompletion(const TenantInputs& tenant, restore::Db& db,
                      Tracer* tracer, size_t thread) {
  const std::string& name = tenant.setup.name;
  RESTORE_ASSIGN_OR_RETURN(std::vector<std::string> path,
                           db.SelectedPathFor(tenant.setup.removed_table));
  RESTORE_ASSIGN_OR_RETURN(std::shared_ptr<const restore::PathModel> model,
                           db.ModelForPath(path));
  const std::shared_ptr<const restore::Database> data = db.data();
  RESTORE_RETURN_IF_ERROR(
      Timed(tracer, thread, "inproc.complete_path_join", name, [&] {
        restore::IncompletenessJoinExecutor executor(data.get(),
                                                     &db.annotation());
        restore::Rng rng(17);
        return executor.CompletePathJoin(*model, rng).status();
      }));

  RESTORE_ASSIGN_OR_RETURN(const restore::Table* root,
                           data->GetTable(path[0]));
  restore::Table joined = *root;
  joined.QualifyColumnNames(path[0]);
  std::vector<size_t> rows(joined.NumRows());
  std::iota(rows.begin(), rows.end(), size_t{0});
  RESTORE_ASSIGN_OR_RETURN(restore::IntMatrix codes,
                           model->EncodeEvidencePrefix(*data, joined, 0, rows));
  restore::Rng rng(29);
  if (model->HopIsFanOut(0)) {
    RESTORE_RETURN_IF_ERROR(
        Timed(tracer, thread, "inproc.tuple_factor", name, [&] {
          return model
              ->SampleTupleFactors(*data, joined, &codes, rows, 0, rng)
              .status();
        }));
  }
  return Timed(tracer, thread, "inproc.synthesize_hop", name, [&] {
    return model->SynthesizeHop(*data, joined, &codes, rows, 0, rng)
        .status();
  });
}

/// Rows of `table` present in the complete data but missing from the
/// tenant's incomplete data (matched on the "id" column): the tuples the
/// setup removed.
Result<std::vector<std::vector<restore::Value>>> RemovedRows(
    const TenantInputs& tenant, const std::string& table) {
  RESTORE_ASSIGN_OR_RETURN(const restore::Table* full,
                           tenant.complete->GetTable(table));
  RESTORE_ASSIGN_OR_RETURN(const restore::Table* kept,
                           tenant.incomplete.GetTable(table));
  RESTORE_ASSIGN_OR_RETURN(const restore::Column* kept_ids,
                           kept->GetColumn("id"));
  RESTORE_ASSIGN_OR_RETURN(const restore::Column* full_ids,
                           full->GetColumn("id"));
  const std::set<int64_t> present(kept_ids->ints().begin(),
                                  kept_ids->ints().end());
  std::vector<std::vector<restore::Value>> rows;
  for (size_t r = 0; r < full->NumRows(); ++r) {
    if (present.count(full_ids->GetInt64(r)) > 0) continue;
    std::vector<restore::Value> row;
    for (const restore::Column& c : full->columns()) {
      row.push_back(c.GetValue(r));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace

Status RunInProcessLeg(const Inputs& inputs, const Fleet& fleet,
                       restore::CachePolicy policy, Tracer* tracer,
                       size_t thread, LegCounts* counts) {
  constexpr int kPasses = 3;
  restore::QueryOptions options;
  options.cache_policy = policy;
  *counts = LegCounts();
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const BenchQuery& q : inputs.queries) {
      restore::Session session = fleet.Find(q.tenant)->CreateSession();
      RESTORE_RETURN_IF_ERROR(
          Timed(tracer, thread, "inproc.session_execute", q.id, [&] {
            Result<restore::ResultSet> rs = session.Execute(q.sql, options);
            if (rs.ok() && pass == 0) {
              counts->tuples_completed += rs->stats().tuples_completed;
              counts->models_consulted += rs->stats().models_consulted;
            }
            return rs.status();
          }));
      const restore::Database& incomplete =
          inputs.Find(q.tenant)->incomplete;
      RESTORE_RETURN_IF_ERROR(
          Timed(tracer, thread, "inproc.execute_sql", q.id, [&] {
            return restore::ExecuteSql(incomplete, q.sql).status();
          }));
    }
    for (size_t i = 0; i < inputs.tenants.size(); ++i) {
      RESTORE_RETURN_IF_ERROR(
          TimeCompletion(*inputs.tenants[i], *fleet.dbs[i], tracer, thread));
    }
  }

  // Appends and the refresh go to a scratch Db over the first tenant's
  // data, so the served fleet (its epochs, models and caches) is untouched.
  // Its models are trained by one pass of that tenant's queries first.
  const TenantInputs& tenant = *inputs.tenants.front();
  RESTORE_ASSIGN_OR_RETURN(
      std::vector<std::vector<restore::Value>> removed,
      RemovedRows(tenant, tenant.setup.removed_table));
  restore::DbOptions scratch_options;
  scratch_options.engine = BenchEngineConfig();
  RESTORE_ASSIGN_OR_RETURN(
      std::shared_ptr<restore::Db> scratch,
      restore::Db::Open(&tenant.incomplete, tenant.annotation,
                        std::move(scratch_options)));
  for (const BenchQuery& q : inputs.queries) {
    if (q.tenant != tenant.setup.name) continue;
    RESTORE_RETURN_IF_ERROR(scratch->CreateSession().Execute(q.sql).status());
  }
  constexpr size_t kBatch = 16;
  for (size_t at = 0; at + kBatch <= removed.size() && at < 40 * kBatch;
       at += kBatch) {
    const std::vector<std::vector<restore::Value>> batch(
        removed.begin() + at, removed.begin() + at + kBatch);
    RESTORE_RETURN_IF_ERROR(
        Timed(tracer, thread, "inproc.db_append", tenant.setup.name,
              [&] {
                return scratch->Append(tenant.setup.removed_table, batch);
              }));
  }
  RESTORE_RETURN_IF_ERROR(Timed(tracer, thread,
                                "inproc.refresh_stale_models",
                                tenant.setup.name,
                                [&] { return scratch->RefreshStaleModels(); }));
  counts->models_refreshed = scratch->stats().models_refreshed;
  return Status::OK();
}

}  // namespace perfbench
