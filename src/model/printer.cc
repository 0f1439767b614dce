#include "model/printer.h"

namespace gchase {

std::string TermToString(Term term, const Vocabulary& vocabulary,
                         const std::vector<std::string>* variable_names) {
  switch (term.kind()) {
    case Term::Kind::kConstant:
      return std::string(vocabulary.constants.NameOf(term.index()));
    case Term::Kind::kVariable:
      if (variable_names != nullptr && term.index() < variable_names->size()) {
        return (*variable_names)[term.index()];
      }
      return "?" + std::to_string(term.index());
    case Term::Kind::kNull:
      return "_:n" + std::to_string(term.index());
  }
  return "<bad term>";
}

std::string AtomToString(const Atom& atom, const Vocabulary& vocabulary,
                         const std::vector<std::string>* variable_names) {
  std::string out = vocabulary.schema.name(atom.predicate);
  out += '(';
  for (uint32_t i = 0; i < atom.arity(); ++i) {
    if (i > 0) out += ',';
    out += TermToString(atom.args[i], vocabulary, variable_names);
  }
  out += ')';
  return out;
}

std::string ConjunctionToString(const std::vector<Atom>& atoms,
                                const Vocabulary& vocabulary,
                                const std::vector<std::string>*
                                    variable_names) {
  std::string out;
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    if (i > 0) out += ", ";
    out += AtomToString(atoms[i], vocabulary, variable_names);
  }
  return out;
}

std::string RuleToString(const Tgd& rule, const Vocabulary& vocabulary) {
  std::string out =
      ConjunctionToString(rule.body(), vocabulary, &rule.variable_names());
  out += " -> ";
  out += ConjunctionToString(rule.head(), vocabulary, &rule.variable_names());
  out += " .";
  return out;
}

std::string EgdToString(const Egd& egd, const Vocabulary& vocabulary) {
  std::string out =
      ConjunctionToString(egd.body(), vocabulary, &egd.variable_names());
  out += " -> ";
  for (std::size_t i = 0; i < egd.equalities().size(); ++i) {
    if (i > 0) out += ", ";
    out += TermToString(egd.equalities()[i].first, vocabulary,
                        &egd.variable_names());
    out += " = ";
    out += TermToString(egd.equalities()[i].second, vocabulary,
                        &egd.variable_names());
  }
  out += " .";
  return out;
}

std::string RuleSetToString(const RuleSet& rules,
                            const Vocabulary& vocabulary) {
  std::string out;
  for (const Tgd& rule : rules.rules()) {
    out += RuleToString(rule, vocabulary);
    out += '\n';
  }
  return out;
}

}  // namespace gchase
