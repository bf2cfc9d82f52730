#ifndef AGGVIEW_SQL_PARSER_H_
#define AGGVIEW_SQL_PARSER_H_

#include <string>

#include "common/result.h"
#include "sql/ast.h"

namespace aggview {

/// Parses a script of the SQL subset used by the paper:
///
///   CREATE VIEW name [(col, ...)] AS
///     SELECT items FROM tables [WHERE conj] GROUP BY cols [HAVING conj] ;
///   ...
///   SELECT items FROM tables [WHERE conj] [GROUP BY cols [HAVING conj]] [;]
///
/// Predicates are conjunctions of comparisons (`AND` only, matching the
/// query class of Section 2); expressions support + - * / over columns and
/// literals; aggregates are AVG/SUM/COUNT/MIN/MAX/MEDIAN and COUNT(*).
Result<AstScript> ParseScript(const std::string& sql);

/// Parses a single SELECT statement.
Result<AstSelect> ParseSelect(const std::string& sql);

/// Parses one materialized-view DDL statement:
///
///   CREATE MATERIALIZED VIEW name [(col, ...)] AS select [;]
///   REFRESH MATERIALIZED VIEW name [;]
///
/// For CREATE, `select_sql` holds the definition text after AS verbatim.
Result<AstMatViewDdl> ParseMatViewDdl(const std::string& sql);

/// Cheap classifier: does `sql` start like a materialized-view DDL
/// statement? (Used by the shell to route DDL before parsing.)
bool IsMatViewDdl(const std::string& sql);

}  // namespace aggview

#endif  // AGGVIEW_SQL_PARSER_H_
