#include "storage/io.h"

#include <charconv>

#include "model/parser.h"

namespace gchase {

std::string WriteInstanceText(const Instance& instance,
                              const Vocabulary& vocabulary) {
  // Appends straight from the symbol table's views and a stack buffer:
  // no temporary string per term.
  std::string out;
  char digits[16] = {};
  for (AtomView atom : instance.atoms()) {
    out += vocabulary.schema.name(atom.predicate);
    out += '(';
    for (uint32_t i = 0; i < atom.arity(); ++i) {
      if (i > 0) out += ',';
      Term t = atom.args[i];
      if (t.IsNull()) {
        const std::to_chars_result end =
            std::to_chars(digits, digits + sizeof(digits), t.index());
        out += "'_:n";
        out.append(digits, end.ptr);
        out += '\'';
      } else {
        // Instances hold only ground terms: t is a constant.
        out += vocabulary.constants.NameOf(t.index());
      }
    }
    out += ").\n";
  }
  return out;
}

StatusOr<Instance> ReadInstanceText(const std::string& text,
                                    Vocabulary* vocabulary) {
  // Reuse the program parser on a private vocabulary snapshot: facts are
  // validated and interned, rules are rejected below.
  StatusOr<ParsedProgram> parsed = ParseProgram(text);
  if (!parsed.ok()) return parsed.status();
  if (!parsed->rules.empty() || !parsed->egds.empty()) {
    return Status::InvalidArgument("fact files must not contain rules");
  }
  // Re-intern every symbol into the caller's vocabulary (the parse used
  // a fresh one), preserving names.
  Instance instance;
  for (const Atom& atom : parsed->facts) {
    const PredicateInfo& info =
        parsed->vocabulary.schema.predicate(atom.predicate);
    StatusOr<PredicateId> pred =
        vocabulary->schema.GetOrAdd(info.name, info.arity);
    if (!pred.ok()) return pred.status();
    Atom mapped;
    mapped.predicate = *pred;
    mapped.args.reserve(atom.arity());
    for (Term t : atom.args) {
      GCHASE_CHECK(t.IsConstant());  // parser only yields ground constants
      mapped.args.push_back(Term::Constant(vocabulary->constants.Intern(
          parsed->vocabulary.constants.NameOf(t.index()))));
    }
    instance.Insert(mapped);
  }
  return instance;
}

}  // namespace gchase
