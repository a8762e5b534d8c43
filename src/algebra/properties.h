#ifndef NATIX_ALGEBRA_PROPERTIES_H_
#define NATIX_ALGEBRA_PROPERTIES_H_

#include <set>
#include <string>

#include "algebra/operator.h"

namespace natix::algebra {

/// Attributes written (bound) by the plan rooted at `op`, including those
/// of nested d-join branches.
std::set<std::string> WrittenAttributes(const Operator& op);

/// Attributes referenced by the plan (or its subscripts) that are not
/// bound within it — the free variables of a dependent expression. For a
/// well-formed top-level plan this is empty or {"cn"} plus $-variables
/// are not included (they come from the execution context).
std::set<std::string> FreeAttributes(const Operator& op);

/// Attributes referenced anywhere in the plan rooted at `root` (its
/// operators, subscripts and nested plans) except inside the subtree
/// rooted at `excluded` — the readers of a subtree's output. Liveness
/// input of the staircase-step rewrite.
std::set<std::string> AttributesReadOutside(const Operator& root,
                                            const Operator& excluded);

/// Number of operator nodes (plan size; used by tests and ablations).
size_t PlanSize(const Operator& op);

/// Attribute names a scalar subscript depends on: its attribute
/// references plus the free attributes of any nested plans. Used by the
/// code generator to key chi^mat and MemoX caches.
std::set<std::string> ScalarFreeAttributes(const Scalar& scalar);

}  // namespace natix::algebra

#endif  // NATIX_ALGEBRA_PROPERTIES_H_
