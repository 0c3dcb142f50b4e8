/**
 * @file
 * Minimal JSON document model, writer and parser for the machine-
 * readable bench outputs (results/bench_*.json). Self-contained on
 * purpose: the container image carries no JSON library, and the bench
 * schema only needs objects, arrays, strings, numbers and booleans.
 *
 * Numbers are stored as doubles; integral values round-trip exactly up
 * to 2^53, far beyond any counter the simulator produces in one run.
 */

#ifndef ATL_UTIL_JSON_HH
#define ATL_UTIL_JSON_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace atl
{

/** One JSON value: null, bool, number, string, array or object. */
class Json
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Json() = default;
    Json(bool b) : _kind(Kind::Bool), _bool(b) {}
    Json(double d) : _kind(Kind::Number), _number(d) {}
    Json(int64_t i) : _kind(Kind::Number), _number(static_cast<double>(i)) {}
    Json(uint64_t u) : _kind(Kind::Number), _number(static_cast<double>(u)) {}
    Json(int i) : _kind(Kind::Number), _number(i) {}
    Json(const char *s) : _kind(Kind::String), _string(s) {}
    Json(std::string s) : _kind(Kind::String), _string(std::move(s)) {}

    /** Kind of this value. */
    Kind kind() const { return _kind; }
    bool isNull() const { return _kind == Kind::Null; }
    bool isObject() const { return _kind == Kind::Object; }
    bool isArray() const { return _kind == Kind::Array; }
    bool isString() const { return _kind == Kind::String; }
    bool isNumber() const { return _kind == Kind::Number; }

    /** @name Scalar accessors (assert on kind mismatch) @{ */
    bool asBool() const;
    double asNumber() const;
    /** asNumber() rounded to the nearest unsigned integer. */
    uint64_t asUint() const;
    const std::string &asString() const;
    /** @} */

    /** Make this value an (empty) object / array in place. */
    static Json object();
    static Json array();

    /** Object member access, creating the member (object kind only). */
    Json &operator[](const std::string &key);

    /** Object member lookup; null reference when absent or not object. */
    const Json &at(const std::string &key) const;

    /** True when an object member exists. */
    bool has(const std::string &key) const;

    /** Object members in key order (empty for non-objects). */
    const std::map<std::string, Json> &members() const { return _object; }

    /** Array append (array kind only). */
    void push(Json value);

    /** Array elements (empty for non-arrays). */
    const std::vector<Json> &items() const { return _array; }

    /** Serialise with 2-space indentation and a trailing newline. */
    std::string dump() const;

    /** Serialise on one line with no whitespace. */
    std::string dumpCompact() const;

    /**
     * Parse a JSON text.
     * @param text the document
     * @param error set to a description on failure
     * @retval true on success, storing the value in out
     */
    static bool parse(const std::string &text, Json &out,
                      std::string *error = nullptr);

  private:
    void dumpTo(std::string &out, int indent) const;
    void dumpCompactTo(std::string &out) const;

    Kind _kind = Kind::Null;
    bool _bool = false;
    double _number = 0.0;
    std::string _string;
    std::vector<Json> _array;
    std::map<std::string, Json> _object;
};

} // namespace atl

#endif // ATL_UTIL_JSON_HH
