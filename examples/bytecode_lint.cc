// bytecode_lint: static verification of the compiled backend's bytecode from
// the command line. Takes a SQL query (emp/dept schema), lowers it under
// ExecBackend::kCompiled with the bytecode verifier enabled, and prints every
// compilation certificate — source rendering, instruction counts, witness
// rows, and the full disassembly; rejected programs print their
// instruction-indexed diagnostic instead. The exit code is the number of
// rejected programs, so the tool doubles as a CI gate.
//
//   bytecode_lint ["<sql>"] [on|paranoid]
//
// With no arguments, lints the paper's Example 1 in paranoid mode (every
// certificate is re-proved by recompiling the source and requiring a
// byte-identical listing).
#include <cstdio>
#include <cstring>
#include <string>

#include "aggview.h"

using namespace aggview;

int main(int argc, char** argv) {
  std::string sql = R"sql(
create view a1 (dno, asal) as
  select e.dno, avg(e.sal) from emp e where e.age < 22 group by e.dno;
select d.dno, d.budget, a1.asal
from dept d, a1
where d.dno = a1.dno and d.budget < 1000000 and a1.asal > 50
)sql";
  if (argc > 1) sql = argv[1];

  ServerOptions options;
  options.backend = ExecBackend::kCompiled;
  options.bytecode_verify = BytecodeVerifyMode::kParanoid;
  if (argc > 2) {
    if (!ParseBytecodeVerifyMode(argv[2], &options.bytecode_verify) ||
        options.bytecode_verify == BytecodeVerifyMode::kOff) {
      std::fprintf(stderr, "usage: bytecode_lint [\"<sql>\"] [on|paranoid]\n");
      return 64;  // EX_USAGE
    }
  }

  Server server(options);
  auto tables = CreateEmpDeptSchema(&server.catalog());
  if (!tables.ok()) return 65;
  if (!GenerateEmpDeptData(&server.catalog(), *tables, {}).ok()) return 65;

  ServerSession conn = server.Connect();
  auto query = conn.Sql(sql);
  if (!query.ok()) {
    std::fprintf(stderr, "error: %s\n", query.status().ToString().c_str());
    return 65;  // EX_DATAERR
  }
  // Executing lowers the plan, which compiles, verifies, and certifies every
  // bytecode program (rejected ones fall back to the interpreter, so the
  // query itself always answers).
  auto result = query->Execute();
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 65;
  }

  std::printf("mode: %s\n",
              BytecodeVerifyModeName(options.bytecode_verify));
  const auto& certs = query->compilations();
  if (certs.empty()) {
    std::printf("no programs compiled (plan lowered without bytecode)\n");
    return 0;
  }

  int rejected = 0;
  for (const CompilationCertificate& cert : certs) {
    std::printf("\n[%s/%s] %s\n", cert.node.c_str(), cert.kind.c_str(),
                cert.source.c_str());
    if (cert.verified) {
      std::printf("  verified: %d instruction(s), max stack depth %d, "
                  "%d witness row(s)\n",
                  cert.instructions, cert.max_stack_depth, cert.witness_rows);
      // Indent the listing two spaces, one instruction per line.
      std::string line;
      for (char c : cert.disassembly) {
        if (c == '\n') {
          std::printf("  %s\n", line.c_str());
          line.clear();
        } else {
          line += c;
        }
      }
      if (!line.empty()) std::printf("  %s\n", line.c_str());
    } else {
      ++rejected;
      std::printf("  REJECTED: %s\n", cert.rejection.c_str());
    }
  }
  std::printf("\n%zu program(s), %d rejected\n", certs.size(), rejected);
  return rejected;
}
