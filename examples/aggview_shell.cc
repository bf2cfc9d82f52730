// Interactive shell: type SQL (the paper's subset) against a generated
// database, see the chosen plan, alternatives, and results.
//
//   ./build/examples/aggview_shell            # emp/dept database
//   ./build/examples/aggview_shell tpcd       # TPC-D style database
//
// Statements end with ';'. Scripts may define views first:
//   create view v (dno, asal) as
//     select e.dno, avg(e.sal) from emp e group by e.dno;
//   select e1.sal from emp e1, v where e1.dno = v.dno and e1.sal > v.asal;
// CREATE MATERIALIZED VIEW name [(cols)] AS select / REFRESH MATERIALIZED
// VIEW name are routed to the server's DDL path; matching aggregate
// queries are then answered from the stored view (see the plan banner).
// Prefix a statement with `explain analyze` to run it instrumented and see
// per-operator actual rows, Q-error, pages and wall time.
// Meta commands: \help \tables \traditional (toggle) \quit
#include <cctype>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "aggview.h"

using namespace aggview;

namespace {

/// Consumes a leading case-insensitive `explain analyze` (the statement may
/// start with view definitions after it). Returns true when present.
bool StripExplainAnalyze(std::string* sql) {
  size_t pos = 0;
  auto skip_space = [&] {
    while (pos < sql->size() &&
           std::isspace(static_cast<unsigned char>((*sql)[pos]))) {
      ++pos;
    }
  };
  auto word = [&](const char* w) {
    size_t len = std::strlen(w);
    if (sql->size() - pos < len) return false;
    for (size_t i = 0; i < len; ++i) {
      if (std::tolower(static_cast<unsigned char>((*sql)[pos + i])) != w[i]) {
        return false;
      }
    }
    pos += len;
    return true;
  };
  skip_space();
  if (!word("explain")) return false;
  skip_space();
  if (!word("analyze")) return false;
  sql->erase(0, pos);
  return true;
}

void PrintTables(const Catalog& catalog) {
  for (int i = 0; i < catalog.num_tables(); ++i) {
    const TableDef& def = catalog.table(static_cast<TableId>(i));
    std::printf("  %-10s %8lld rows   (%s)\n", def.name.c_str(),
                static_cast<long long>(def.stats.row_count),
                def.schema.ToString().c_str());
  }
}

void RunStatement(ServerSession& conn, std::string sql) {
  bool analyze = StripExplainAnalyze(&sql);
  if (IsMatViewDdl(sql)) {
    auto message = conn.ExecuteDdl(sql);
    if (!message.ok()) {
      std::printf("error: %s\n", message.status().ToString().c_str());
      return;
    }
    std::printf("%s\n", message->c_str());
    return;
  }
  auto prepared = conn.Sql(sql);
  if (!prepared.ok()) {
    std::printf("error: %s\n", prepared.status().ToString().c_str());
    return;
  }
  std::printf("-- plan (%s, est %.1f IO pages):\n%s",
              prepared->description().c_str(), prepared->plan()->cost,
              PlanToString(prepared->plan(), prepared->query()).c_str());
  if (prepared->alternatives().size() > 1) {
    std::printf("-- alternatives considered: %zu\n",
                prepared->alternatives().size());
  }
  if (analyze) {
    auto analyzed = prepared->ExplainAnalyze();
    if (!analyzed.ok()) {
      std::printf("error: %s\n", analyzed.status().ToString().c_str());
      return;
    }
    std::printf("%s", analyzed->c_str());
  }
  auto result = prepared->Execute();
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().ToString().c_str());
    return;
  }
  std::printf("-- %zu rows, %lld IO pages measured\n", result->rows.size(),
              static_cast<long long>(prepared->last_io_pages()));
  size_t shown = std::min<size_t>(result->rows.size(), 20);
  std::printf("%s", QueryResult{result->layout,
                                {result->rows.begin(),
                                 result->rows.begin() + static_cast<long>(shown)}}
                        .ToString(prepared->query().columns())
                        .c_str());
  if (shown < result->rows.size()) {
    std::printf("... (%zu more)\n", result->rows.size() - shown);
  }
}

}  // namespace

int main(int argc, char** argv) {
  // The server reads AGGVIEW_TEST_THREADS / AGGVIEW_TEST_BATCH_SIZE from
  // the environment (ServerOptions::Default), so the shell can be driven
  // parallel without flags.
  Server server;
  Catalog& catalog = server.catalog();
  if (argc > 1 && std::string(argv[1]) == "tpcd") {
    auto tables = CreateTpcdSchema(&catalog);
    if (!tables.ok()) return 1;
    DbgenOptions options;
    options.scale_factor = 0.005;
    if (!GenerateTpcdData(&catalog, *tables, options).ok()) return 1;
  } else {
    auto tables = CreateEmpDeptSchema(&catalog);
    if (!tables.ok()) return 1;
    if (!GenerateEmpDeptData(&catalog, *tables, EmpDeptOptions{}).ok()) return 1;
  }

  std::printf("aggview shell — cost-based optimization of aggregate views\n"
              "(EDBT 1996 reproduction). \\help for help.\n\ntables:\n");
  PrintTables(catalog);

  ServerSession conn = server.Connect();
  std::string buffer;
  std::string line;
  std::printf("\nsql> ");
  std::fflush(stdout);
  while (std::getline(std::cin, line)) {
    if (buffer.empty() && !line.empty() && line[0] == '\\') {
      if (line == "\\quit" || line == "\\q") break;
      if (line == "\\tables") {
        PrintTables(catalog);
      } else if (line == "\\traditional") {
        conn.set_use_traditional(!conn.use_traditional());
        std::printf("optimizer: %s\n",
                    conn.use_traditional()
                        ? "traditional two-phase"
                        : "cost-based with pull-up/push-down");
      } else {
        std::printf(
            "\\tables        list tables\n"
            "\\traditional   toggle traditional vs extended optimizer\n"
            "\\quit          exit\n"
            "Anything else: SQL, terminated by ';'.\n"
            "create/refresh materialized view run as DDL statements.\n"
            "Prefix with `explain analyze` for per-operator actual rows,\n"
            "Q-error, pages and time.\n");
      }
      std::printf("sql> ");
      std::fflush(stdout);
      continue;
    }
    buffer += line;
    buffer += "\n";
    if (buffer.find(';') != std::string::npos &&
        buffer.rfind(';') == buffer.find_last_not_of(" \t\n")) {
      // Heuristic: run when the statement ends with ';' — but only if the
      // script has balanced create-view statements (a ';' inside a script
      // separates views; the final select also ends with ';').
      size_t selects = 0;
      for (size_t pos = 0; (pos = buffer.find("select", pos)) != std::string::npos;
           ++pos) {
        ++selects;
      }
      size_t views = 0;
      for (size_t pos = 0; (pos = buffer.find("create view", pos)) !=
                           std::string::npos;
           ++pos) {
        ++views;
      }
      size_t semis = 0;
      for (char c : buffer) {
        if (c == ';') ++semis;
      }
      if (semis >= views + 1 || views == 0) {
        RunStatement(conn, buffer);
        buffer.clear();
      }
    }
    std::printf(buffer.empty() ? "sql> " : "...> ");
    std::fflush(stdout);
  }
  return 0;
}
