#ifndef PERFBENCH_TENANTS_H_
#define PERFBENCH_TENANTS_H_

// The served fleet: one restore::Db tenant per Table-1 setup (H1..H5,
// M1..M5), built from seeded datagen inputs, plus the 20 Table-1 queries with
// their in-process reference answers.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "datagen/setups.h"
#include "exec/result_set.h"
#include "restore/db.h"
#include "storage/database.h"

namespace perfbench {

/// One setup's generated data. Addresses are stable (held by unique_ptr):
/// a Db keeps a pointer to its incomplete Database.
struct TenantInputs {
  restore::CompletionSetup setup;
  const restore::Database* complete = nullptr;  // owned by Inputs
  restore::Database incomplete;
  restore::SchemaAnnotation annotation;
};

/// One workload query, addressed to its setup's tenant.
struct BenchQuery {
  std::string id;      // e.g. "H1/Q6"
  std::string tenant;  // setup name
  std::string sql;
};

/// Everything generated from the seed, before any Db exists.
struct Inputs {
  std::map<std::string, std::unique_ptr<restore::Database>> complete;
  std::vector<std::unique_ptr<TenantInputs>> tenants;
  std::vector<BenchQuery> queries;

  const TenantInputs* Find(const std::string& name) const;
};

/// Generates every tenant's data from `seed`: the housing (scale 0.5) and
/// movies (scale 0.4) databases and each setup's incomplete copy (keep rate
/// 0.4, removal correlation 0.5).
restore::Result<Inputs> GenerateInputs(uint64_t seed);

/// The engine configuration every tenant runs with: small models, enough
/// optimizer steps via the min_train_steps floor (the figure harnesses'
/// configuration).
restore::EngineConfig BenchEngineConfig();

/// Opened Dbs, in Inputs::tenants order.
struct Fleet {
  std::vector<std::shared_ptr<restore::Db>> dbs;
  std::shared_ptr<restore::Db> Find(const std::string& name) const;
  std::vector<std::string> names;
};

/// Opens one Db per tenant and runs every query once with the cache
/// bypassed, so each path a query needs is trained (first touch) and the
/// completion cache stays empty.
restore::Result<Fleet> OpenFleet(const Inputs& inputs,
                                 const restore::EngineConfig& engine);

/// The rows of `rs` rendered exactly as the server's chunked JSON renders
/// them: `["key",...,value,...]` tuples joined by ','.
std::string RenderRows(restore::ResultSet& rs);

/// Reference answers computed in-process with Session::Execute.
struct Reference {
  std::string rows;                        // RenderRows output
  std::vector<std::string> key_columns;
  std::vector<std::string> value_columns;
  double rel_error = 0.0;  // AverageRelativeError vs the complete data
};

restore::Result<std::vector<Reference>> ComputeReferences(
    const Inputs& inputs, const Fleet& fleet);

}  // namespace perfbench

#endif  // PERFBENCH_TENANTS_H_
