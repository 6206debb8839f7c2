#include "tenants.h"

#include "datagen/workload.h"
#include "exec/executor.h"
#include "metrics/metrics.h"
#include "server/http.h"

namespace perfbench {

using restore::Database;
using restore::Db;
using restore::Result;

const TenantInputs* Inputs::Find(const std::string& name) const {
  for (const auto& t : tenants) {
    if (t->setup.name == name) return t.get();
  }
  return nullptr;
}

std::shared_ptr<Db> Fleet::Find(const std::string& name) const {
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return dbs[i];
  }
  return nullptr;
}

Result<Inputs> GenerateInputs(uint64_t seed) {
  Inputs inputs;
  const double scales[2] = {0.5, 0.4};
  const char* datasets[2] = {"housing", "movies"};
  for (int d = 0; d < 2; ++d) {
    RESTORE_ASSIGN_OR_RETURN(
        Database complete,
        restore::BuildCompleteDatabase(datasets[d], seed + d, scales[d]));
    inputs.complete[datasets[d]] =
        std::make_unique<Database>(std::move(complete));
  }
  std::vector<restore::CompletionSetup> setups = restore::HousingSetups();
  for (auto& s : restore::MovieSetups()) setups.push_back(std::move(s));
  uint64_t setup_seed = seed * 1000003 + 17;
  for (const auto& setup : setups) {
    auto t = std::make_unique<TenantInputs>();
    t->setup = setup;
    t->complete = inputs.complete.at(setup.dataset).get();
    RESTORE_ASSIGN_OR_RETURN(
        t->incomplete,
        restore::ApplySetup(*t->complete, setup, /*keep_rate=*/0.4,
                            /*removal_correlation=*/0.5, ++setup_seed));
    t->annotation = restore::AnnotationFor(setup);
    inputs.tenants.push_back(std::move(t));
  }
  std::vector<restore::WorkloadQuery> workload = restore::HousingWorkload();
  for (auto& q : restore::MovieWorkload()) workload.push_back(std::move(q));
  for (const auto& q : workload) {
    inputs.queries.push_back({q.setup + "/" + q.name, q.setup, q.sql});
  }
  return inputs;
}

restore::EngineConfig BenchEngineConfig() {
  restore::EngineConfig config;
  config.model.epochs = 12;
  config.model.hidden_dim = 40;
  config.model.embed_dim = 8;
  config.model.max_bins = 16;
  config.model.min_train_steps = 500;
  config.max_candidates = 3;
  config.selection = restore::SelectionStrategy::kBestTestLoss;
  return config;
}

Result<Fleet> OpenFleet(const Inputs& inputs,
                        const restore::EngineConfig& engine) {
  Fleet fleet;
  for (const auto& t : inputs.tenants) {
    restore::DbOptions options;
    options.engine = engine;
    RESTORE_ASSIGN_OR_RETURN(
        std::shared_ptr<Db> db,
        Db::Open(&t->incomplete, t->annotation, std::move(options)));
    fleet.dbs.push_back(std::move(db));
    fleet.names.push_back(t->setup.name);
  }
  restore::QueryOptions bypass;
  bypass.cache_policy = restore::CachePolicy::kBypass;
  for (const BenchQuery& q : inputs.queries) {
    restore::Session session = fleet.Find(q.tenant)->CreateSession();
    RESTORE_ASSIGN_OR_RETURN(restore::ResultSet rs,
                             session.Execute(q.sql, bypass));
    (void)rs;
  }
  return fleet;
}

std::string RenderRows(restore::ResultSet& rs) {
  std::string out;
  rs.Rewind();
  restore::ResultBatch batch;
  bool first = true;
  while (rs.NextBatch(&batch)) {
    for (size_t r = 0; r < batch.rows; ++r) {
      if (!first) out += ',';
      first = false;
      out += '[';
      for (size_t c = 0; c < rs.num_key_columns(); ++c) {
        if (c > 0) out += ',';
        out += '"' + restore::server::JsonEscape(batch.key(r, c)) + '"';
      }
      for (size_t c = 0; c < rs.num_value_columns(); ++c) {
        if (c > 0 || rs.num_key_columns() > 0) out += ',';
        out += restore::server::JsonNumber(batch.value(r, c));
      }
      out += ']';
    }
  }
  rs.Rewind();
  return out;
}

Result<std::vector<Reference>> ComputeReferences(const Inputs& inputs,
                                                 const Fleet& fleet) {
  std::vector<Reference> refs;
  restore::QueryOptions bypass;
  bypass.cache_policy = restore::CachePolicy::kBypass;
  for (const BenchQuery& q : inputs.queries) {
    restore::Session session = fleet.Find(q.tenant)->CreateSession();
    RESTORE_ASSIGN_OR_RETURN(restore::ResultSet completed,
                             session.Execute(q.sql, bypass));
    RESTORE_ASSIGN_OR_RETURN(
        restore::ResultSet truth,
        restore::ExecuteSql(*inputs.Find(q.tenant)->complete, q.sql));
    Reference ref;
    ref.rows = RenderRows(completed);
    ref.key_columns = completed.key_columns();
    ref.value_columns = completed.value_columns();
    ref.rel_error = restore::AverageRelativeError(truth, completed);
    refs.push_back(std::move(ref));
  }
  return refs;
}

}  // namespace perfbench
