/**
 * @file
 * Minimal JSON document model: build, serialize, parse.
 *
 * Exists for the structured results sink of core::SweepRunner and the
 * golden-metrics test tier, both of which need *deterministic* output:
 * object members keep insertion order, and numbers are printed with
 * std::to_chars (shortest round-trip form), so the same document
 * always serializes to the same bytes and doubles survive a
 * write/parse cycle bit-for-bit.
 */

#ifndef SHMGPU_COMMON_JSON_HH
#define SHMGPU_COMMON_JSON_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace shmgpu::json
{

/** One JSON value (null / bool / number / string / array / object). */
class Value
{
  public:
    enum class Kind : std::uint8_t
    {
        Null, Bool, Number, String, Array, Object
    };

    Value() : kind_(Kind::Null) {}
    Value(std::nullptr_t) : kind_(Kind::Null) {}
    Value(bool b) : kind_(Kind::Bool), boolVal(b) {}
    Value(double d) : kind_(Kind::Number), numVal(d) {}
    Value(int i) : kind_(Kind::Number), numVal(i) {}
    Value(std::int64_t i)
        : kind_(Kind::Number), numVal(static_cast<double>(i)) {}
    Value(std::uint64_t u)
        : kind_(Kind::Number), numVal(static_cast<double>(u)) {}
    Value(const char *s) : kind_(Kind::String), strVal(s) {}
    Value(std::string s) : kind_(Kind::String), strVal(std::move(s)) {}

    static Value array();
    static Value object();

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isObject() const { return kind_ == Kind::Object; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }

    /** @{ Typed accessors; fatal when the kind does not match. */
    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;
    /** @} */

    /** Append to an array (fatal on non-arrays). */
    Value &append(Value v);
    std::size_t size() const;
    /** Array element access (fatal out of range / non-array). */
    const Value &at(std::size_t index) const;

    /**
     * Object member access; inserts a null member on first use
     * (fatal on non-objects). Members keep insertion order.
     */
    Value &operator[](const std::string &key);
    /** True when the object has @p key. */
    bool contains(const std::string &key) const;
    /** Const lookup; fatal when absent or not an object. */
    const Value &at(const std::string &key) const;
    const std::vector<std::pair<std::string, Value>> &members() const;

    /**
     * Serialize. @p indent > 0 pretty-prints with that many spaces
     * per level; 0 emits the compact single-line form. Output is a
     * pure function of the document: no locale, map ordering, or
     * float-format dependence.
     */
    void write(std::ostream &os, int indent = 2) const;
    std::string dump(int indent = 2) const;

    /** Parse a complete document; fatal with offset on malformed
     *  input (trailing garbage included). */
    static Value parse(const std::string &text);
    static Value parseFile(const std::string &path);

    /**
     * Non-fatal parse for inputs the program does not control (e.g.
     * cached result cells that may be truncated or corrupt). Returns
     * false on malformed input, leaving @p out untouched; on success
     * stores the document into @p out (when non-null) and returns
     * true.
     */
    static bool tryParse(const std::string &text, Value *out);

  private:
    void writeIndented(std::ostream &os, int indent, int depth) const;

    Kind kind_;
    bool boolVal = false;
    double numVal = 0;
    std::string strVal;
    std::vector<Value> arr;
    std::vector<std::pair<std::string, Value>> obj;
};

/** Shortest-round-trip decimal form of @p d (std::to_chars). */
std::string numberToString(double d);

} // namespace shmgpu::json

#endif // SHMGPU_COMMON_JSON_HH
