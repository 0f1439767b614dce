// Tests for the pluggable EDB layer: the CSV/DLGP bulk loaders and
// their error paths, the columnar snapshot round-trip and its
// corruption handling, budget-governed loading, and the bit-identity of
// EDB-seeded chase runs against the per-atom parser path.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/memory_budget.h"
#include "chase/chase.h"
#include "model/parser.h"
#include "model/vocabulary.h"
#include "storage/bulk_load.h"
#include "storage/edb.h"
#include "storage/edb_snapshot.h"
#include "storage/instance.h"
#include "storage/io.h"

namespace gchase {
namespace {

std::unique_ptr<InMemoryEdb> MustLoadCsv(const std::string& text,
                                         BulkLoadOptions options = {}) {
  StatusOr<std::unique_ptr<InMemoryEdb>> edb = LoadCsvFacts(text, options);
  EXPECT_TRUE(edb.ok()) << edb.status().ToString();
  return *std::move(edb);
}

TEST(BulkLoadCsv, LoadsRowsGroupedAndUngrouped) {
  auto edb = MustLoadCsv(
      "# comment\n"
      "edge,a,b\n"
      "edge,b,c\n"
      "\n"
      "node,a\n"
      "edge,c,a\n");  // returns to a previously-seen predicate
  ASSERT_EQ(edb->num_tables(), 2u);
  EXPECT_EQ(edb->table(0).predicate(), "edge");
  EXPECT_EQ(edb->table(0).arity(), 2u);
  EXPECT_EQ(edb->table(0).rows(), 3u);
  EXPECT_EQ(edb->table(1).predicate(), "node");
  EXPECT_EQ(edb->table(1).rows(), 1u);
  EXPECT_EQ(edb->TotalRows(), 4u);
  EXPECT_EQ(edb->load_stats().rows, 4u);
  // Dictionary ids are first-appearance ordered: a=0, b=1, c=2.
  ASSERT_EQ(edb->dictionary().size(), 3u);
  EXPECT_EQ(edb->dictionary().NameOf(0), "a");
  EXPECT_EQ(edb->dictionary().NameOf(2), "c");
  EXPECT_EQ(edb->table(0).column(0)[2], 2u);  // edge,c,a
}

TEST(BulkLoadCsv, ZeroAryFact) {
  auto edb = MustLoadCsv("flag\n");
  ASSERT_EQ(edb->num_tables(), 1u);
  EXPECT_EQ(edb->table(0).arity(), 0u);
  EXPECT_EQ(edb->table(0).rows(), 1u);
}

TEST(BulkLoadCsv, MalformedRows) {
  EXPECT_FALSE(LoadCsvFacts(",a,b\n", {}).ok());        // empty predicate
  EXPECT_FALSE(LoadCsvFacts("edge,a,\n", {}).ok());     // empty value
  EXPECT_FALSE(LoadCsvFacts("edge,,b\n", {}).ok());     // empty value
  // Errors carry the 1-based line number.
  StatusOr<std::unique_ptr<InMemoryEdb>> edb =
      LoadCsvFacts("edge,a,b\nedge,a,\n", {});
  ASSERT_FALSE(edb.ok());
  EXPECT_NE(edb.status().message().find("line 2"), std::string::npos)
      << edb.status().ToString();
}

TEST(BulkLoadCsv, ArityMismatchAcrossRows) {
  StatusOr<std::unique_ptr<InMemoryEdb>> edb =
      LoadCsvFacts("edge,a,b\nedge,c\n", {});
  ASSERT_FALSE(edb.ok());
  EXPECT_NE(edb.status().message().find("arity"), std::string::npos);
}

TEST(BulkLoadCsv, ArityMismatchAgainstDeclaredSchema) {
  // A schema that declares edge/2 must reject an edge/3 fact file even
  // when the file itself is internally consistent.
  Vocabulary vocabulary;
  ASSERT_TRUE(vocabulary.schema.GetOrAdd("edge", 2).ok());
  BulkLoadOptions options;
  options.schema = &vocabulary.schema;
  StatusOr<std::unique_ptr<InMemoryEdb>> edb =
      LoadCsvFacts("edge,a,b,c\n", options);
  ASSERT_FALSE(edb.ok());
  EXPECT_NE(edb.status().message().find("declared with arity 2"),
            std::string::npos)
      << edb.status().ToString();
}

TEST(BulkLoadDlgp, LoadsFactsAndRejectsRules) {
  BulkLoadOptions options;
  StatusOr<std::unique_ptr<InMemoryEdb>> edb = LoadDlgpFacts(
      "% facts only\n"
      "edge(a, b). edge(b, c).\n"
      "label(a, 'hello world').\n",
      options);
  ASSERT_TRUE(edb.ok()) << edb.status().ToString();
  EXPECT_EQ((*edb)->TotalRows(), 3u);
  EXPECT_EQ((*edb)->dictionary().NameOf(3), "hello world");

  EXPECT_FALSE(LoadDlgpFacts("edge(X,Y) -> edge(Y,X).\n", options).ok());
  EXPECT_FALSE(LoadDlgpFacts("edge(a, X).\n", options).ok());  // variable
  EXPECT_FALSE(LoadDlgpFacts("edge(a, b)\n", options).ok());   // no '.'
  EXPECT_FALSE(LoadDlgpFacts("edge(a, 'b\n", options).ok());   // unterminated
}

TEST(BulkLoad, DuplicateRowsSurviveLoadAndDedupAtSeed) {
  auto edb = MustLoadCsv("edge,a,b\nedge,a,b\nedge,b,c\n");
  EXPECT_EQ(edb->TotalRows(), 3u);  // the EDB is a row store, not a set

  Vocabulary vocabulary;
  Instance instance;
  EdbSeedStats seed;
  ASSERT_TRUE(SeedInstanceFromEdb(*edb, &vocabulary, &instance, nullptr,
                                  &seed)
                  .ok());
  EXPECT_EQ(seed.rows, 3u);
  EXPECT_EQ(seed.atoms_added, 2u);
  EXPECT_EQ(seed.duplicate_rows, 1u);
  EXPECT_EQ(instance.size(), 2u);
}

TEST(BulkLoad, BudgetTripMidLoadKeepsPartialStats) {
  // Enough rows that the loader's 1024-row budget poll fires several
  // times; a tiny budget must stop the load without an error, leaving a
  // valid prefix and the memory_exceeded marker.
  std::string text;
  for (int i = 0; i < 8000; ++i) {
    text += "edge,a" + std::to_string(i) + ",b" + std::to_string(i) + "\n";
  }
  MemoryBudget budget(16 * 1024);
  BulkLoadOptions options;
  options.budget = &budget;
  auto edb = MustLoadCsv(text, options);
  EXPECT_TRUE(edb->load_stats().memory_exceeded);
  EXPECT_GT(edb->load_stats().rows, 0u);
  EXPECT_LT(edb->load_stats().rows, 8000u);
  EXPECT_EQ(edb->TotalRows(), edb->load_stats().rows);
  EXPECT_EQ(edb->load_stats().input_bytes, text.size());
}

TEST(BulkLoad, BudgetTripSurfacesAsMemoryBudgetExceededOutcome) {
  std::string text;
  for (int i = 0; i < 8000; ++i) {
    text += "edge,a" + std::to_string(i) + ",b" + std::to_string(i) + "\n";
  }
  auto budget = std::make_shared<MemoryBudget>(16 * 1024);
  BulkLoadOptions load_options;
  load_options.budget = budget.get();
  auto edb = MustLoadCsv(text, load_options);
  ASSERT_TRUE(edb->load_stats().memory_exceeded);

  StatusOr<ParsedProgram> program =
      ParseProgram("edge(X,Y) -> touched(X).\n");
  ASSERT_TRUE(program.ok());
  ChaseOptions options;
  options.max_atoms = 100000;
  options.memory_budget = budget;
  ChaseRun run(program->rules, options, *edb, &program->vocabulary);
  ASSERT_TRUE(run.seed_status().ok()) << run.seed_status().ToString();
  EXPECT_EQ(run.Execute(), ChaseOutcome::kMemoryBudgetExceeded);
  // Partial load stats survive the abort.
  EXPECT_EQ(run.stats().load_bytes, text.size());
  EXPECT_GT(run.stats().load_seconds, 0.0);
}

TEST(EdbSeed, ArityConflictWithRulesFailsSeedStatus) {
  auto edb = MustLoadCsv("edge,a,b,c\n");  // edge/3
  StatusOr<ParsedProgram> program =
      ParseProgram("edge(X,Y) -> touched(X).\n");  // edge/2
  ASSERT_TRUE(program.ok());
  ChaseOptions options;
  ChaseRun run(program->rules, options, *edb, &program->vocabulary);
  EXPECT_FALSE(run.seed_status().ok());
}

std::string DistinctEdgeCsv(int rows) {
  std::string text;
  for (int i = 0; i < rows; ++i) {
    text += "edge,node" + std::to_string(i) + ",node" +
            std::to_string(i + 1) + "\n";
  }
  return text;
}

TEST(EdbSeed, ChargesTheVocabularyReserveUntilTheRunEnds) {
  auto edb = MustLoadCsv(DistinctEdgeCsv(3000));
  StatusOr<ParsedProgram> program =
      ParseProgram("edge(X,Y) -> touched(X).\n");
  ASSERT_TRUE(program.ok());
  auto budget = std::make_shared<MemoryBudget>();
  ChaseOptions options;
  options.max_atoms = 100000;
  options.memory_budget = budget;
  Vocabulary& vocabulary = program->vocabulary;
  const uint64_t vocabulary_before = vocabulary.constants.capacity_bytes();
  {
    ChaseRun run(program->rules, options, *edb, &vocabulary);
    ASSERT_TRUE(run.seed_status().ok());
    const uint64_t vocabulary_growth =
        vocabulary.constants.capacity_bytes() - vocabulary_before;
    ASSERT_GT(vocabulary_growth, 0u);
    // The seed charged the instance and the vocabulary, nothing else.
    const uint64_t seeded =
        run.instance().MemoryFootprint() + vocabulary_growth;
    EXPECT_EQ(budget->in_use_bytes(), seeded);
    ASSERT_EQ(run.Execute(), ChaseOutcome::kTerminated);
    EXPECT_GE(run.stats().peak_memory_bytes, seeded);
  }
  // The vocabulary outlives the run, but its charge does not.
  EXPECT_EQ(budget->in_use_bytes(), 0u);
}

TEST(EdbSeed, BudgetBelowInstancePlusVocabularyTripsAtSeed) {
  auto edb = MustLoadCsv(DistinctEdgeCsv(3000));
  StatusOr<ParsedProgram> program =
      ParseProgram("edge(X,Y) -> touched(X).\n");
  ASSERT_TRUE(program.ok());
  const uint64_t instance_reserve =
      Instance().EstimateReserveBytes(edb->TotalRows(), 2 * edb->TotalRows());
  const uint64_t vocabulary_reserve =
      program->vocabulary.constants.ReserveBytes(
          edb->dictionary().size(), edb->dictionary().name_bytes());
  ASSERT_GT(vocabulary_reserve, 0u);
  // Room for the instance's reserve alone, not for both.
  ChaseOptions options;
  options.max_atoms = 100000;
  options.memory_budget = std::make_shared<MemoryBudget>(
      instance_reserve + vocabulary_reserve / 2);
  ChaseRun run(program->rules, options, *edb, &program->vocabulary);
  ASSERT_TRUE(run.seed_status().ok());
  EXPECT_EQ(run.Execute(), ChaseOutcome::kMemoryBudgetExceeded);
  EXPECT_EQ(run.instance().size(), 0u);  // stopped at seed, not in a round
  EXPECT_TRUE(run.stats().per_round.empty());
  EXPECT_GE(run.stats().memory_denials, 1u);
}

TEST(EdbSeed, BitIdenticalToParserSeededChase) {
  const std::string rules =
      "edge(X,Y) -> touched(X).\n"
      "edge(X,Y) -> touched(Y).\n"
      "edge(X,Y), edge(Y,Z) -> hop(X,Z).\n";
  const std::string facts_dlgp =
      "edge(a, b).\nedge(b, c).\nedge(c, a).\nedge(a, a).\n";
  const std::string facts_csv = "edge,a,b\nedge,b,c\nedge,c,a\nedge,a,a\n";

  StatusOr<ParsedProgram> inline_program = ParseProgram(rules + facts_dlgp);
  ASSERT_TRUE(inline_program.ok());
  ChaseOptions options;
  options.max_atoms = 100000;
  ChaseRun parser_run(inline_program->rules, options,
                      inline_program->facts);
  ASSERT_EQ(parser_run.Execute(), ChaseOutcome::kTerminated);

  StatusOr<ParsedProgram> rules_only = ParseProgram(rules);
  ASSERT_TRUE(rules_only.ok());
  auto edb = MustLoadCsv(facts_csv);
  ChaseRun edb_run(rules_only->rules, options, *edb,
                   &rules_only->vocabulary);
  ASSERT_TRUE(edb_run.seed_status().ok());
  ASSERT_EQ(edb_run.Execute(), ChaseOutcome::kTerminated);

  // Same atoms, same ids, same order — and the vocabularies agree, so
  // printed instances match too.
  ASSERT_EQ(edb_run.instance().size(), parser_run.instance().size());
  for (uint32_t id = 0; id < edb_run.instance().size(); ++id) {
    EXPECT_TRUE(edb_run.instance().atom(id) == parser_run.instance().atom(id))
        << "atom " << id << " differs";
  }
  EXPECT_EQ(edb_run.stats().edb_atoms, 4u);
  EXPECT_GT(edb_run.stats().load_bytes, 0u);
}

TEST(EdbSeed, BitIdenticalToParserWithRuleConstants) {
  // The rules intern `b` (also in the CSV) and `zed` (not in it) before
  // the seed runs, so the seed must map the EDB's `b` to the rules' id
  // and hand `a` and `c` the ids after `zed` — the parser's order.
  const std::string rules =
      "edge(b,Y) -> fromb(Y).\n"
      "edge(X,Y) -> tagged(X,zed).\n"
      "edge(X,Y), edge(Y,Z) -> hop(X,Z).\n";
  const std::string facts_dlgp =
      "edge(a, b).\nedge(b, c).\nedge(c, a).\nedge(a, a).\n";
  const std::string facts_csv = "edge,a,b\nedge,b,c\nedge,c,a\nedge,a,a\n";

  StatusOr<ParsedProgram> inline_program = ParseProgram(rules + facts_dlgp);
  ASSERT_TRUE(inline_program.ok());
  ChaseOptions options;
  options.max_atoms = 100000;
  ChaseRun parser_run(inline_program->rules, options,
                      inline_program->facts);
  ASSERT_EQ(parser_run.Execute(), ChaseOutcome::kTerminated);

  StatusOr<ParsedProgram> rules_only = ParseProgram(rules);
  ASSERT_TRUE(rules_only.ok());
  ASSERT_EQ(rules_only->vocabulary.constants.size(), 2u);
  auto edb = MustLoadCsv(facts_csv);
  ChaseRun edb_run(rules_only->rules, options, *edb,
                   &rules_only->vocabulary);
  ASSERT_TRUE(edb_run.seed_status().ok());
  ASSERT_EQ(edb_run.Execute(), ChaseOutcome::kTerminated);

  const SymbolTable& parser_names = inline_program->vocabulary.constants;
  const SymbolTable& edb_names = rules_only->vocabulary.constants;
  ASSERT_EQ(edb_names.size(), 4u);
  ASSERT_EQ(edb_names.size(), parser_names.size());
  for (uint32_t id = 0; id < edb_names.size(); ++id) {
    EXPECT_EQ(edb_names.NameOf(id), parser_names.NameOf(id))
        << "constant " << id << " differs";
  }
  EXPECT_EQ(edb_names.Find("b"), 0u);
  EXPECT_EQ(edb_names.Find("zed"), 1u);

  ASSERT_EQ(edb_run.instance().size(), parser_run.instance().size());
  for (uint32_t id = 0; id < edb_run.instance().size(); ++id) {
    EXPECT_TRUE(edb_run.instance().atom(id) == parser_run.instance().atom(id))
        << "atom " << id << " differs";
  }
  EXPECT_EQ(WriteInstanceText(edb_run.instance(), rules_only->vocabulary),
            WriteInstanceText(parser_run.instance(),
                              inline_program->vocabulary));
  EXPECT_EQ(edb_run.stats().edb_atoms, 4u);
  // The load phase splits into the loader's parse and the seed.
  EXPECT_GT(edb_run.stats().seed_seconds, 0.0);
  EXPECT_GE(edb_run.stats().load_seconds, edb_run.stats().seed_seconds);
}

class EdbSnapshotTest : public ::testing::Test {
 protected:
  std::string Path(const char* name) {
    return ::testing::TempDir() + "/" + name;
  }

  void WriteBytes(const std::string& path, const std::string& bytes) {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file),
              bytes.size());
    std::fclose(file);
  }

  std::string ReadBytes(const std::string& path) {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    EXPECT_NE(file, nullptr);
    std::fseek(file, 0, SEEK_END);
    std::string bytes(static_cast<std::size_t>(std::ftell(file)), '\0');
    std::fseek(file, 0, SEEK_SET);
    EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), file), bytes.size());
    std::fclose(file);
    return bytes;
  }
};

TEST_F(EdbSnapshotTest, RoundTripPreservesEverything) {
  auto edb = MustLoadCsv(
      "edge,a,b\nedge,b,c\nnode,a\nnode,b\nnode,c\nflag\n");
  const std::string path = Path("roundtrip.gsnap");
  ASSERT_TRUE(WriteEdbSnapshot(*edb, path).ok());

  StatusOr<std::unique_ptr<EdbDatabase>> opened = OpenEdbSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const EdbDatabase& mapped = **opened;
  ASSERT_EQ(mapped.num_tables(), edb->num_tables());
  ASSERT_EQ(mapped.dictionary().size(), edb->dictionary().size());
  for (uint32_t t = 0; t < mapped.num_tables(); ++t) {
    const EdbTable& a = edb->table(t);
    const EdbTable& b = mapped.table(t);
    EXPECT_EQ(a.predicate(), b.predicate());
    ASSERT_EQ(a.arity(), b.arity());
    ASSERT_EQ(a.rows(), b.rows());
    for (uint32_t c = 0; c < a.arity(); ++c) {
      for (uint64_t r = 0; r < a.rows(); ++r) {
        ASSERT_EQ(a.column(c)[r], b.column(c)[r]);
      }
    }
  }
  for (uint32_t i = 0; i < mapped.dictionary().size(); ++i) {
    EXPECT_EQ(mapped.dictionary().NameOf(i), edb->dictionary().NameOf(i));
  }
  EXPECT_GT(mapped.load_stats().input_bytes, 0u);
  std::remove(path.c_str());
}

TEST_F(EdbSnapshotTest, BudgetChargesAndReleasesMapping) {
  auto edb = MustLoadCsv("edge,a,b\n");
  const std::string path = Path("budget.gsnap");
  ASSERT_TRUE(WriteEdbSnapshot(*edb, path).ok());
  MemoryBudget budget(1 << 20);
  {
    StatusOr<std::unique_ptr<EdbDatabase>> opened =
        OpenEdbSnapshot(path, &budget);
    ASSERT_TRUE(opened.ok());
    EXPECT_GT(budget.in_use_bytes(), 0u);
  }
  EXPECT_EQ(budget.in_use_bytes(), 0u);  // released on destruction
  std::remove(path.c_str());
}

TEST_F(EdbSnapshotTest, MissingEmptyTruncatedAndCorrupt) {
  EXPECT_EQ(OpenEdbSnapshot(Path("nonexistent.gsnap")).status().code(),
            StatusCode::kNotFound);

  const std::string empty_path = Path("empty.gsnap");
  WriteBytes(empty_path, "");
  StatusOr<std::unique_ptr<EdbDatabase>> empty =
      OpenEdbSnapshot(empty_path);
  ASSERT_FALSE(empty.ok());
  EXPECT_NE(empty.status().message().find("truncated or empty"),
            std::string::npos);

  // A valid snapshot cut anywhere must fail the size self-check, never
  // crash: try a sweep of truncation points.
  auto edb = MustLoadCsv("edge,a,b\nedge,b,c\nnode,a\n");
  const std::string good_path = Path("good.gsnap");
  ASSERT_TRUE(WriteEdbSnapshot(*edb, good_path).ok());
  const std::string bytes = ReadBytes(good_path);
  const std::string cut_path = Path("cut.gsnap");
  for (std::size_t cut : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                          bytes.size() / 2, bytes.size() - 1}) {
    WriteBytes(cut_path, bytes.substr(0, cut));
    EXPECT_FALSE(OpenEdbSnapshot(cut_path).ok()) << "cut at " << cut;
  }

  // Corrupt magic.
  std::string bad = bytes;
  bad[0] ^= 0xff;
  WriteBytes(cut_path, bad);
  EXPECT_FALSE(OpenEdbSnapshot(cut_path).ok());

  // Corrupt a dictionary id in the column data to an out-of-range value:
  // validation must reject it before anything dereferences the id. The
  // last table is node/1 with one row, so its id is the first word of
  // the final 8-byte block (the last 4 bytes are padding).
  bad = bytes;
  bad[bad.size() - 8] = '\xff';
  bad[bad.size() - 7] = '\xff';
  bad[bad.size() - 6] = '\xff';
  bad[bad.size() - 5] = '\x3f';
  WriteBytes(cut_path, bad);
  EXPECT_FALSE(OpenEdbSnapshot(cut_path).ok());

  std::remove(empty_path.c_str());
  std::remove(good_path.c_str());
  std::remove(cut_path.c_str());
}

TEST_F(EdbSnapshotTest, MappedDatabaseSeedsIdenticalInstance) {
  auto edb = MustLoadCsv("edge,a,b\nedge,b,c\nnode,a\n");
  const std::string path = Path("seed.gsnap");
  ASSERT_TRUE(WriteEdbSnapshot(*edb, path).ok());
  StatusOr<std::unique_ptr<EdbDatabase>> mapped = OpenEdbSnapshot(path);
  ASSERT_TRUE(mapped.ok());

  Vocabulary vocab_a, vocab_b;
  Instance from_memory, from_mapping;
  EdbSeedStats seed_a, seed_b;
  ASSERT_TRUE(SeedInstanceFromEdb(*edb, &vocab_a, &from_memory, nullptr,
                                  &seed_a)
                  .ok());
  ASSERT_TRUE(SeedInstanceFromEdb(**mapped, &vocab_b, &from_mapping,
                                  nullptr, &seed_b)
                  .ok());
  ASSERT_EQ(from_memory.size(), from_mapping.size());
  for (uint32_t id = 0; id < from_memory.size(); ++id) {
    EXPECT_TRUE(from_memory.atom(id) == from_mapping.atom(id));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gchase
