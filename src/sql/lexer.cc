#include "sql/lexer.h"

#include <cctype>
#include <charconv>
#include <system_error>

#include "common/string_util.h"

namespace aggview {

Result<std::vector<Token>> Tokenize(const std::string& sql) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = sql.size();

  auto make = [&](TokenKind kind, std::string text, int pos) {
    Token t;
    t.kind = kind;
    t.text = std::move(text);
    t.position = pos;
    return t;
  };

  while (i < n) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    int pos = static_cast<int>(i);
    // Comments: -- to end of line.
    if (c == '-' && i + 1 < n && sql[i + 1] == '-') {
      while (i < n && sql[i] != '\n') ++i;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(sql[i])) ||
                       sql[i] == '_')) {
        ++i;
      }
      tokens.push_back(make(TokenKind::kIdentifier,
                            ToLower(sql.substr(start, i - start)), pos));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = i;
      bool is_real = false;
      while (i < n && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
      if (i < n && sql[i] == '.' && i + 1 < n &&
          std::isdigit(static_cast<unsigned char>(sql[i + 1]))) {
        is_real = true;
        ++i;
        while (i < n && std::isdigit(static_cast<unsigned char>(sql[i]))) ++i;
      }
      std::string text = sql.substr(start, i - start);
      Token t = make(is_real ? TokenKind::kReal : TokenKind::kInteger, text, pos);
      const char* first = text.data();
      const char* last = first + text.size();
      std::from_chars_result parsed =
          is_real ? std::from_chars(first, last, t.real_value)
                  : std::from_chars(first, last, t.int_value);
      if (parsed.ec != std::errc() || parsed.ptr != last) {
        return Status::ParseError(
            StrFormat("numeric literal %s at offset %d is out of range",
                      text.c_str(), pos));
      }
      tokens.push_back(std::move(t));
      continue;
    }
    if (c == '\'') {
      size_t start = ++i;
      while (i < n && sql[i] != '\'') ++i;
      if (i >= n) {
        return Status::ParseError(
            StrFormat("unterminated string literal at offset %d", pos));
      }
      tokens.push_back(
          make(TokenKind::kString, sql.substr(start, i - start), pos));
      ++i;  // closing quote
      continue;
    }
    // Two-character symbols.
    if (i + 1 < n) {
      std::string two = sql.substr(i, 2);
      if (two == "<>" || two == "<=" || two == ">=" || two == "!=") {
        tokens.push_back(make(TokenKind::kSymbol, two == "!=" ? "<>" : two, pos));
        i += 2;
        continue;
      }
    }
    switch (c) {
      case '=':
      case '<':
      case '>':
      case '(':
      case ')':
      case ',':
      case '.':
      case '*':
      case '+':
      case '-':
      case '/':
      case ';':
        tokens.push_back(make(TokenKind::kSymbol, std::string(1, c), pos));
        ++i;
        continue;
      default:
        return Status::ParseError(
            StrFormat("unexpected character '%c' at offset %d", c, pos));
    }
  }
  tokens.push_back(make(TokenKind::kEnd, "", static_cast<int>(n)));
  return tokens;
}

}  // namespace aggview
